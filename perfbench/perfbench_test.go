package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"netagg/internal/agg"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			n := wl.racks * wl.workersPerRack
			a, b, other := wl.newSource(7, n), wl.newSource(7, n), wl.newSource(8, n)
			for id := uint64(1); id <= 3; id++ {
				pa, pb := flatten(a.job(id)), flatten(b.job(id))
				if len(pa) != len(pb) {
					t.Fatalf("job %d: %d vs %d payloads", id, len(pa), len(pb))
				}
				for i := range pa {
					if !bytes.Equal(pa[i], pb[i]) {
						t.Fatalf("job %d payload %d differs between runs of one seed", id, i)
					}
				}
				if !bytes.Equal(a.reference(id), b.reference(id)) {
					t.Fatalf("job %d reference differs between runs of one seed", id)
				}
				if bytes.Equal(flatten(other.job(id))[0], pa[0]) {
					t.Fatalf("job %d: seeds 7 and 8 give the same first payload", id)
				}
				if err := a.check(id, [][]byte{a.reference(id)}); err != nil {
					t.Fatalf("job %d: the reference fails its own check: %v", id, err)
				}
			}
		})
	}
}

// combineAll folds payloads with an agg aggregator, the program's path.
func combineAll(t *testing.T, a agg.Aggregator, parts [][]byte) []byte {
	t.Helper()
	acc := parts[0]
	for _, p := range parts[1:] {
		var err error
		if acc, err = a.Combine(acc, p); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

func TestReferenceReducersAgreeWithAggregators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nparts := 2 + rng.Intn(5)
		var kvParts, rowParts, docParts [][]byte
		for p := 0; p < nparts; p++ {
			seen := map[string]bool{}
			var kvs []kv
			for i := rng.Intn(20); i > 0; i-- {
				k := randText(rng, 1+rng.Intn(3))
				if !seen[k] {
					seen[k] = true
					kvs = append(kvs, kv{k, rng.Int63n(200) - 100})
				}
			}
			sort.Slice(kvs, func(i, j int) bool { return kvs[i].key < kvs[j].key })
			kvParts = append(kvParts, encodeKVs(kvs))

			rows := make([][]byte, rng.Intn(10))
			for i := range rows {
				rows[i] = []byte(randText(rng, rng.Intn(4)))
			}
			rowParts = append(rowParts, encodeItems(rows))

			docs := make([]doc, rng.Intn(15))
			for i := range docs {
				// Few distinct scores, so ties fall back to the ID.
				docs[i] = doc{id: uint64(p)<<16 | uint64(rng.Intn(1000)), score: float64(rng.Intn(5)), text: randText(rng, rng.Intn(5))}
			}
			docParts = append(docParts, encodeDocs(topDocs(docs, len(docs))))
		}
		cases := []struct {
			name   string
			a      agg.Aggregator
			parts  [][]byte
			reduce func([][]byte) ([]byte, error)
		}{
			{"kv-sum", agg.KVCombiner{Op: agg.OpSum}, kvParts, reduceKVs},
			{"concat", agg.Concat{}, rowParts, reduceRows},
			{"topk", agg.TopK{K: searchK}, docParts, func(p [][]byte) ([]byte, error) { return reduceTopK(p, searchK) }},
		}
		for _, c := range cases {
			want := combineAll(t, c.a, c.parts)
			got, err := c.reduce(c.parts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d %s: reference reducer disagrees with the aggregator", trial, c.name)
			}
			if err := checkResult(c.parts, want, c.reduce); err != nil {
				t.Fatalf("trial %d %s: multi-part result rejected: %v", trial, c.name, err)
			}
		}
	}
}

func TestCheckRejectsWrongResult(t *testing.T) {
	src := newWordCount(3, 2)
	ref := src.reference(1)
	parts := flatten(src.job(1))
	if err := src.check(1, parts); err != nil {
		t.Fatalf("unreduced parts of a correct result rejected: %v", err)
	}
	if err := src.check(1, parts[1:]); err == nil {
		t.Fatal("result missing a part accepted")
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)-1] ^= 1
	if err := src.check(1, [][]byte{bad}); err == nil {
		t.Fatal("corrupted result accepted")
	}
}

// emitted lists the metric names a run prints with tracing off and on.
func emitted() (e2e, perLayer []string) {
	snaps := []snapshot{{at: 0}, {at: 1}}
	for _, m := range endToEnd(nil, snaps, 0) {
		e2e = append(e2e, m.name)
	}
	var w windowStats
	m, _ := layers(w, snaps[0], snaps[1], w, snaps[0], snaps[1], &gauges{}, nil, 0)
	m.addSelf(map[string]int64{}, 0)
	m.addOverhead(endToEnd(nil, snaps, 0), endToEnd(nil, snaps, 0), 0)
	for _, x := range m {
		perLayer = append(perLayer, x.name)
	}
	return e2e, perLayer
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	e2e, perLayer := emitted()
	seen := map[string]bool{}
	for _, name := range append(append([]string(nil), e2e...), perLayer...) {
		if !valid.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("metric name %q emitted twice", name)
		}
		seen[name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		return out
	}
	same := func(kind string, got, want []string) {
		g, w := append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Fatalf("%s: emitted %v, BENCHMARK.json declares %v", kind, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: emitted %v, BENCHMARK.json declares %v", kind, g, w)
			}
		}
	}
	same("end_to_end", e2e, declared(spec.EndToEnd))
	same("per_layer", perLayer, declared(spec.PerLayer))
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanJob, Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: spanSub, Start: 0, End: 10, Parent: 0, Req: 1},
		{Name: spanSend, Start: 10, End: 30, Parent: 0, Req: 1},
		{Name: spanWait, Start: 30, End: 100, Parent: 0, Req: 1},
		{Name: spanPlan, Start: 2, End: 6, Parent: -1, Req: 1},
		{Name: spanPlan, Start: 12, End: 15, Parent: -1, Req: 1},
		{Name: spanCombi, Start: 40, End: 60, Parent: -1},
		{Name: spanCombi, Start: 50, End: 70, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		spanJob: 0, spanSub: 6, spanSend: 17, spanWait: 40, spanPlan: 7, spanCombi: 40,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}

func TestSteadyState(t *testing.T) {
	cases := []struct {
		name string
		cpus []float64
		ok   bool
	}{
		{"flat", []float64{40, 41, 39, 40, 42, 40, 41, 39, 40}, true},
		{"warming up", []float64{30, 31, 32, 34, 35, 36, 39, 40, 42}, false},
		{"slow rise within bound", []float64{40, 40, 41, 42, 42, 43, 44, 45, 46}, true},
		{"host slows at the end", []float64{38, 42, 38, 34, 36, 39, 44, 48, 47}, true},
		{"getting cheaper", []float64{50, 49, 48, 45, 44, 43, 38, 37, 36}, true},
	}
	for _, c := range cases {
		if _, _, _, _, ok := steadyState(c.cpus); ok != c.ok {
			t.Errorf("%s: steady = %v, want %v", c.name, ok, c.ok)
		}
	}
}

func TestSpeedAdjusted(t *testing.T) {
	// The host slows by 40% halfway through: CPU per job and the probe
	// both rise, and the adjusted series stays flat.
	snaps := []snapshot{{at: 0}, {at: 10}, {at: 20}, {at: 30}}
	cpus := []float64{40, 56, 56}
	var probes []probeReading
	for at := int64(0); at < 30; at += 2 {
		cost := time.Millisecond
		if at >= 10 {
			cost = 1400 * time.Microsecond
		}
		probes = append(probes, probeReading{at: at, cost: cost})
	}
	got := speedAdjusted(cpus, snaps, probes)
	for i := 1; i < len(got); i++ {
		if d := got[i] / got[0]; d < 0.99 || d > 1.01 {
			t.Fatalf("adjusted %v, want flat", got)
		}
	}
	if p := newSpeedProbe().run(); p <= 0 {
		t.Fatalf("probe took %v of thread CPU", p)
	}
}
