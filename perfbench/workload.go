package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"netagg/internal/agg"
)

// workload is one benchmark input set and the deployment it runs on.
type workload struct {
	name           string
	racks          int
	workersPerRack int
	app            string
	aggregator     agg.Aggregator
	// callers > 0 runs a closed loop with that many callers; otherwise
	// one generator goroutine offers jobs at rate per second (open loop).
	callers int
	rate    float64
	// newSource generates the workload's inputs and references from a
	// seed.
	newSource func(seed int64, workers int) source
}

// source yields each job's payloads and checks its result. Job IDs start
// at 1.
type source interface {
	// job returns parts[w], the partial payloads of worker w for job id.
	job(id uint64) [][][]byte
	// reference returns the canonical encoding of job id's correct result.
	reference(id uint64) []byte
	// check compares job id's result parts with its reference.
	check(id uint64, parts [][]byte) error
}

const (
	wcVocabulary   = 12000
	wcKeysPerWork  = 5000
	wcKeysPerChunk = 1000
	tsParts        = 4
	tsRowsPerPart  = 250
	tsRowBytes     = 100
	searchK        = 10
	searchDocs     = 10
	searchTextLen  = 26
	// queryRate keeps the generator goroutine, which submits each query
	// and sends its 16 partials in turn, ~12% busy (2.4 ms of shim time
	// per query). At 100 q/s it was ~44% busy (4.4 ms), and a neighbour
	// taking one of the host's 2 vCPUs raised p90 1.8x and p95 4x; at
	// 50 q/s, 1.13x and 1.17x.
	queryRate = 50
)

var workloads = []workload{
	{
		name: "wordcount-bulk", racks: 2, workersPerRack: 4, app: "wordcount",
		aggregator: agg.KVCombiner{Op: agg.OpSum}, callers: 2,
		newSource: newWordCount,
	},
	{
		name: "terasort-bulk", racks: 2, workersPerRack: 4, app: "terasort",
		aggregator: agg.Concat{}, callers: 2,
		newSource: newTeraSort,
	},
	{
		name: "search-query", racks: 2, workersPerRack: 8, app: "search",
		aggregator: agg.TopK{K: searchK}, rate: queryRate,
		newSource: newSearch,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fixedSource replays the same payloads for every job, as the bulk
// workloads do: a fresh copy per job would make the worker shims'
// retention window hold gigabytes (see BENCHMARK.json).
type fixedSource struct {
	parts  [][][]byte
	ref    []byte
	reduce func([][]byte) ([]byte, error)
}

func (s *fixedSource) job(uint64) [][][]byte   { return s.parts }
func (s *fixedSource) reference(uint64) []byte { return s.ref }
func (s *fixedSource) check(_ uint64, parts [][]byte) error {
	return checkResult(parts, s.ref, s.reduce)
}

// flatten lists every payload of a job.
func flatten(parts [][][]byte) [][]byte {
	var out [][]byte
	for _, w := range parts {
		out = append(out, w...)
	}
	return out
}

const letters = "abcdefghijklmnopqrstuvwxyz"

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// newWordCount builds the word-count inputs: each worker holds
// wcKeysPerWork distinct words drawn from a shared vocabulary, so about
// 30% of the bytes survive aggregation (α ≈ 0.3), sent as sorted chunks of
// wcKeysPerChunk pairs.
func newWordCount(seed int64, workers int) source {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, wcVocabulary)
	vocab := make([]string, 0, wcVocabulary)
	for len(vocab) < wcVocabulary {
		w := randText(rng, 3+rng.Intn(10))
		if !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	s := &fixedSource{parts: make([][][]byte, workers), reduce: reduceKVs}
	for w := range s.parts {
		pairs := make([]kv, wcKeysPerWork)
		for i, idx := range rng.Perm(wcVocabulary)[:wcKeysPerWork] {
			pairs[i] = kv{vocab[idx], 1 + rng.Int63n(100)}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
		for lo := 0; lo < len(pairs); lo += wcKeysPerChunk {
			s.parts[w] = append(s.parts[w], encodeKVs(pairs[lo:min(lo+wcKeysPerChunk, len(pairs))]))
		}
	}
	ref, err := reduceKVs(flatten(s.parts))
	if err != nil {
		panic(err) // the payloads were encoded just above
	}
	s.ref = ref
	return s
}

// newTeraSort builds the TeraSort inputs: tsParts payloads per worker of
// tsRowsPerPart random rows each. Nothing reduces (α = 1).
func newTeraSort(seed int64, workers int) source {
	rng := rand.New(rand.NewSource(seed))
	s := &fixedSource{parts: make([][][]byte, workers), reduce: reduceRows}
	for w := range s.parts {
		for p := 0; p < tsParts; p++ {
			rows := make([][]byte, tsRowsPerPart)
			for i := range rows {
				rows[i] = make([]byte, tsRowBytes)
				rng.Read(rows[i])
			}
			s.parts[w] = append(s.parts[w], encodeItems(rows))
		}
	}
	ref, err := reduceRows(flatten(s.parts))
	if err != nil {
		panic(err) // the payloads were encoded just above
	}
	s.ref = ref
	return s
}

// searchSource builds every query's partials afresh from the seed and the
// query ID, as a search backend builds each response.
type searchSource struct {
	seed    int64
	workers int
}

func newSearch(seed int64, workers int) source {
	return &searchSource{seed: seed, workers: workers}
}

// docs generates query id's documents per worker. Worker w's document IDs
// carry w in their high bits, so shards never share a document.
func (s *searchSource) docs(id uint64) [][]doc {
	rng := rand.New(rand.NewSource(s.seed ^ int64(splitmix(id))))
	out := make([][]doc, s.workers)
	for w := range out {
		ds := make([]doc, searchDocs)
		for i := range ds {
			ds[i] = doc{
				id:    uint64(w)<<32 | uint64(rng.Uint32()),
				score: rng.Float64(),
				text:  randText(rng, searchTextLen),
			}
		}
		out[w] = topDocs(ds, searchDocs)
	}
	return out
}

func (s *searchSource) job(id uint64) [][][]byte {
	out := make([][][]byte, s.workers)
	for w, ds := range s.docs(id) {
		out[w] = [][]byte{encodeDocs(ds)}
	}
	return out
}

func (s *searchSource) reference(id uint64) []byte {
	var all []doc
	for _, ds := range s.docs(id) {
		all = append(all, ds...)
	}
	return encodeDocs(topDocs(all, searchK))
}

func (s *searchSource) check(id uint64, parts [][]byte) error {
	return checkResult(parts, s.reference(id), func(p [][]byte) ([]byte, error) {
		return reduceTopK(p, searchK)
	})
}

// splitmix is the SplitMix64 finaliser, used to derive per-query seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobTimeout bounds how long a job may take before it counts as failed.
const jobTimeout = 5 * time.Second
