package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netagg/internal/agg"
	"netagg/internal/shim"
	"netagg/internal/testbed"
	"netagg/internal/treeplan"
)

// fabric is one live in-process deployment driven by the benchmark.
type fabric struct {
	wl      workload
	src     source
	tb      *testbed.Testbed
	workers []string
	tr      *tracer

	next      atomic.Uint64 // last job ID issued
	sentBytes atomic.Int64  // partial bytes handed to SendPartials
	drains    sync.WaitGroup
}

// newFabric generates the workload's inputs and references and starts
// the deployment: one agg box per switch, no link pacing. With tracing,
// the aggregator and the planner are wrapped in timing decorators.
func newFabric(wl workload, seed int64, tr *tracer, traced bool) (*fabric, error) {
	workers := wl.racks * wl.workersPerRack
	src := wl.newSource(seed, workers)
	var aggregator agg.Aggregator = wl.aggregator
	var planner treeplan.Planner // nil: the shims' default, treeplan.OnPath
	if traced {
		aggregator = timedAggregator{inner: aggregator, tr: tr}
		planner = timedPlanner{inner: treeplan.OnPath{}, tr: tr}
	}
	reg := agg.NewRegistry()
	reg.Register(wl.app, aggregator)
	tb, err := testbed.New(testbed.Config{
		Racks:          wl.racks,
		WorkersPerRack: wl.workersPerRack,
		BoxesPerSwitch: 1,
		Registry:       reg,
		Planner:        planner,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("start deployment: %w", err)
	}
	return &fabric{wl: wl, src: src, tb: tb, workers: tb.WorkerHosts(), tr: tr}, nil
}

// close tears the deployment down and waits until every abandoned result
// has been released.
func (f *fabric) close() {
	f.tb.Close()
	f.drains.Wait()
}

var errTimeout = errors.New("no result within the job timeout")

// jobRec is one job's outcome. Times are nanoseconds since the epoch;
// start is the due time in the open loop.
type jobRec struct {
	id         uint64
	start, end int64
	lag        int64 // how late the load generator started the job
	bytes      int64
	err        error
	kind       string // failure kind: "error", "timeout" or "wrong"
}

// startJob submits job rec and sends every worker's partials. With
// tracing on it returns the spans of the calls made. If the job cannot
// start, it marks rec failed and returns a nil pending.
func (f *fabric) startJob(rec *jobRec, parts [][][]byte) (*shim.Pending, []span) {
	traced := f.tr.on.Load()
	var spans []span
	fail := func(err error) (*shim.Pending, []span) {
		rec.end = f.tr.now()
		rec.err, rec.kind = err, "error"
		return nil, nil
	}
	t := f.tr.now()
	p, err := f.tb.Master.Submit(f.wl.app, rec.id, f.workers, 1)
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	if traced {
		spans = append(spans, span{Name: spanSub, Start: t, End: f.tr.now(), Req: rec.id})
	}
	for w, host := range f.workers {
		t = f.tr.now()
		if err := f.tb.Workers[host].SendPartials(f.wl.app, rec.id, w, testbed.MasterHost, parts[w], 1); err != nil {
			f.abandon(p)
			return fail(fmt.Errorf("send partials of worker %d: %w", w, err))
		}
		if traced {
			spans = append(spans, span{Name: spanSend, Start: t, End: f.tr.now(), Req: rec.id})
		}
		for _, part := range parts[w] {
			rec.bytes += int64(len(part))
		}
	}
	f.sentBytes.Add(rec.bytes)
	return p, spans
}

// abandon releases a pending's result whenever it arrives: Close fails
// every outstanding request, so the drain always ends.
func (f *fabric) abandon(p *shim.Pending) {
	f.drains.Add(1)
	go func() {
		defer f.drains.Done()
		r := <-p.C
		r.Release()
	}()
}

// await waits for job rec's result, timestamps it and checks it against
// the reference. spans holds the job's traced calls (nil when off).
func (f *fabric) await(p *shim.Pending, rec *jobRec, spans []span, waitStart int64) {
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	select {
	case r := <-p.C:
		rec.end = f.tr.now()
		if r.Err != nil {
			rec.err, rec.kind = r.Err, "error"
		} else if err := f.src.check(rec.id, r.Parts); err != nil {
			rec.err, rec.kind = err, "wrong"
		}
		r.Release()
	case <-timer.C:
		rec.end = f.tr.now()
		rec.err, rec.kind = errTimeout, "timeout"
		f.abandon(p)
	}
	if spans != nil {
		spans = append(spans, span{Name: spanWait, Start: waitStart, End: rec.end, Req: rec.id})
		f.tr.addJob(span{Name: spanJob, Start: rec.start, End: rec.end, Req: rec.id}, spans)
	}
}

// runJob runs one job to completion, starting now.
func (f *fabric) runJob(rec *jobRec, parts [][][]byte) {
	if p, spans := f.startJob(rec, parts); p != nil {
		f.await(p, rec, spans, f.tr.now())
	}
}

// closedLoop runs callers goroutines that each start a job as soon as
// their previous one completes, until the epoch offset until. It returns
// every job's record once all callers have finished.
func (f *fabric) closedLoop(callers int, until int64) []jobRec {
	out := make([][]jobRec, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(recs *[]jobRec) {
			defer wg.Done()
			prevEnd := f.tr.now()
			for f.tr.now() < until {
				id := f.next.Add(1)
				parts := f.src.job(id)
				rec := jobRec{id: id, start: f.tr.now()}
				rec.lag = rec.start - prevEnd
				f.runJob(&rec, parts)
				prevEnd = f.tr.now()
				*recs = append(*recs, rec)
			}
		}(&out[c])
	}
	wg.Wait()
	var all []jobRec
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all
}

// openLoop offers one job every 1/rate seconds from a single generator
// goroutine, from the epoch offset first until until. Each job's latency
// runs from its due time. Payloads are built fresh before each due time.
// It returns every job's record once all of them have completed.
func (f *fabric) openLoop(rate float64, first, until int64) []jobRec {
	period := int64(float64(time.Second) / rate)
	recs := make([]jobRec, 0, (until-first)/period+1)
	for due := first; due < until; due += period {
		recs = append(recs, jobRec{start: due})
	}
	var wg sync.WaitGroup
	for i := range recs {
		rec := &recs[i]
		rec.id = f.next.Add(1)
		parts := f.src.job(rec.id)
		f.sleepUntil(rec.start)
		rec.lag = f.tr.now() - rec.start
		p, spans := f.startJob(rec, parts)
		if p == nil {
			continue
		}
		waitStart := f.tr.now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.await(p, rec, spans, waitStart)
		}()
	}
	wg.Wait()
	return recs
}
