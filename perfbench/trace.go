package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netagg/internal/agg"
	"netagg/internal/treeplan"
)

// Span names, one per layer boundary the benchmark can see from outside.
const (
	spanJob   = "job"
	spanSub   = "shim.submit"
	spanSend  = "shim.send_partials"
	spanWait  = "shim.fabric_wait"
	spanPlan  = "treeplan.plan"
	spanCombi = "agg.combine"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the run's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for none
	Req    uint64 `json:"req,omitempty"`
	In     int    `json:"in_bytes,omitempty"`
	Out    int    `json:"out_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on; the spans are written out when
// the run ends. Off, the decorators below cost one atomic load per call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addJob records a job's root span and its children, parenting the
// children to the root.
func (t *tracer) addJob(root span, children []span) {
	t.mu.Lock()
	root.Parent = -1
	idx := len(t.spans)
	t.spans = append(t.spans, root)
	for _, c := range children {
		c.Parent = idx
		t.spans = append(t.spans, c)
	}
	t.mu.Unlock()
}

// timedAggregator times every Combine while tracing is on. Combine sees
// no request ID, so its spans are unparented and attributed to jobs by
// interval overlap.
type timedAggregator struct {
	inner agg.Aggregator
	tr    *tracer
}

func (a timedAggregator) Name() string { return a.inner.Name() }

func (a timedAggregator) Combine(x, y []byte) ([]byte, error) {
	if !a.tr.on.Load() {
		return a.inner.Combine(x, y)
	}
	start := a.tr.now()
	out, err := a.inner.Combine(x, y)
	a.tr.add(span{Name: spanCombi, Start: start, End: a.tr.now(), Parent: -1, In: len(x) + len(y), Out: len(out)})
	return out, err
}

// timedPlanner times every Plan while tracing is on; its spans carry the
// request ID and are parented to the shim call that contains them.
type timedPlanner struct {
	inner treeplan.Planner
	tr    *tracer
}

func (p timedPlanner) Name() string { return p.inner.Name() }

func (p timedPlanner) Plan(topo treeplan.Topology, req treeplan.Request) treeplan.Tree {
	if !p.tr.on.Load() {
		return p.inner.Plan(topo, req)
	}
	start := p.tr.now()
	t := p.inner.Plan(topo, req)
	p.tr.add(span{Name: spanPlan, Start: start, End: p.tr.now(), Parent: -1, Req: req.Req})
	return t
}

// parentPlans links each plan span to the shim call of the same request
// whose interval contains it.
func parentPlans(spans []span) {
	calls := make(map[uint64][]int)
	for i, s := range spans {
		if s.Name == spanSub || s.Name == spanSend {
			calls[s.Req] = append(calls[s.Req], i)
		}
	}
	for i := range spans {
		if spans[i].Name != spanPlan {
			continue
		}
		for _, c := range calls[spans[i].Req] {
			if spans[c].Start <= spans[i].Start && spans[i].End <= spans[c].End {
				spans[i].Parent = c
				break
			}
		}
	}
}

// covered returns how much of [lo, hi) the sorted, merged intervals
// cover.
func covered(merged [][2]int64, lo, hi int64) int64 {
	i := sort.Search(len(merged), func(i int) bool { return merged[i][1] > lo })
	var sum int64
	for ; i < len(merged) && merged[i][0] < hi; i++ {
		sum += min(hi, merged[i][1]) - max(lo, merged[i][0])
	}
	return sum
}

// merge sorts intervals and merges overlapping ones.
func merge(iv [][2]int64) [][2]int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

// selfTimes returns each span name's total self time in nanoseconds: its
// duration minus the part its children cover. Plan spans are children of
// the shim call containing them; the fabric wait's children are the
// combine spans overlapping it, which run on the boxes while the job
// waits.
func selfTimes(spans []span) map[string]int64 {
	parentPlans(spans)
	children := make(map[int][][2]int64)
	var combines [][2]int64
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
		if s.Name == spanCombi {
			combines = append(combines, [2]int64{s.Start, s.End})
		}
	}
	combines = merge(combines)
	self := make(map[string]int64)
	for i, s := range spans {
		d := s.dur()
		if s.Name == spanWait {
			d -= covered(combines, s.Start, s.End)
		} else if c := children[i]; len(c) > 0 {
			d -= covered(merge(c), s.Start, s.End)
		}
		self[s.Name] += d
	}
	return self
}

// writeTrace writes the spans and per-name self times to path.
func writeTrace(path string, spans []span, self map[string]int64, window [2]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	selfMs := make(map[string]float64, len(self))
	for k, v := range self {
		selfMs[k] = float64(v) / 1e6
	}
	data, err := json.Marshal(struct {
		WindowNs [2]int64           `json:"window_ns"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{window, selfMs, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
