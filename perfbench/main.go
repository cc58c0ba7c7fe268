// Command perfbench is the repository's end-to-end benchmark. It drives
// complete aggregation jobs through a live in-process NetAgg deployment
// over loopback TCP (worker shim → transport → agg box → Combine → emit →
// master shim) and reports job throughput, latency and cost per job. With
// --trace 1 it instead reports per-layer figures: counter deltas of core,
// transport, bufpool and the Go runtime read with tracing off, then spans
// around the calls into shim, treeplan and agg read with tracing on, and
// the tracing overhead between the two windows.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload wordcount-bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// job fails its output check, times out or errors, when pooled buffers
// leak, or when the run was not at steady state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netagg/internal/bufpool"
)

// retention is the worker shims' default WorkerConfig.Retention. Every
// SendPartials scans the requests retained that long, so per-job cost
// grows until the load has run for one full retention window; only then
// does measurement start, after warmup.
const (
	retention = 30 * time.Second
	warmup    = retention + time.Second
)

const (
	// Set-up is repeated setupRuns times or for setupSpan, whichever is
	// longer, with setupGap between set-ups; setup_s is the median. The
	// host's speed moves 10-20% within seconds, so the set-ups are spread
	// over more than a second instead of run back to back.
	setupRuns = 11
	setupSpan = 1500 * time.Millisecond
	setupGap  = 20 * time.Millisecond
	// subWindows is how many equal parts each measurement window is
	// split into.
	subWindows = 9
	// sampleEvery is the gauge sampling interval.
	sampleEvery = 5 * time.Millisecond
	// steadyBound is the largest rise of cpu_ms_per_job from the first
	// to the last third of the window at steady state: the bound
	// BENCHMARK.json gives cpu_ms_per_job.
	steadyBound = 0.25
	// lateAfter is the generator lag past which a job counts as late.
	lateAfter = time.Millisecond
	// leakSettle bounds the wait for pooled buffer counters to balance
	// after Close, as the repository's own migration test waits.
	leakSettle = 10 * time.Second
)

type config struct {
	wl       workload
	seed     int64
	seconds  time.Duration
	traced   bool
	traceDir string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the measurement window in seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "perfbench-traces"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, traceDir: *traceDir,
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(cfg)
	if !res.correct {
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
	zero              metricSet // printed in the table, not in the JSON
	notes             []string
	problems          []string
}

func (r *result) print(cfg config) {
	fmt.Printf("workload %s  seed %d  window %s  warm-up %s  traced %v\n",
		cfg.wl.name, cfg.seed, cfg.seconds, warmup, cfg.traced)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if len(r.zero) > 0 {
		fmt.Println("counts that are 0 on correct code at this load (not in the JSON):")
	}
	for _, m := range r.zero {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Println("FAIL:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs of numbers and strings
	fmt.Println(string(line))
}

// windowStats summarises the jobs of one window [lo, hi).
type windowStats struct {
	lo, hi            int64
	done              int       // jobs completed correctly in the window
	bytes             int64     // their partial bytes
	lat               []float64 // ms, jobs started in the window that completed correctly
	attempted, failed int       // jobs started in the window
	lagMax            int64
	late              int
}

func stats(recs []jobRec, lo, hi int64) windowStats {
	w := windowStats{lo: lo, hi: hi}
	for i := range recs {
		r := &recs[i]
		if r.err == nil && r.end >= lo && r.end < hi {
			w.done++
			w.bytes += r.bytes
		}
		if r.start < lo || r.start >= hi {
			continue
		}
		w.attempted++
		w.lagMax = max(w.lagMax, r.lag)
		if r.lag > int64(lateAfter) {
			w.late++
		}
		if r.err != nil {
			w.failed++
			continue
		}
		w.lat = append(w.lat, float64(r.end-r.start)/1e6)
	}
	return w
}

func (w windowStats) secs() float64 { return float64(w.hi-w.lo) / 1e9 }

// steadyState checks the host-speed-adjusted cpu_ms_per_job of each
// sub-window (speedAdjusted) for the signature of a warm-up shorter than
// the shims' retention window: per-job
// cost grows while the window fills, so the medians of the first, middle
// and last third rise in that order. The window is not at steady state
// when they do and the last exceeds the first by more than steadyBound.
// A step the middle third does not share is outside load on the host,
// which moves CPU time per job by 10-20% within seconds, not the program
// warming up.
func steadyState(cpus []float64) (first, middle, last, drift float64, ok bool) {
	third := len(cpus) / 3
	first = median(cpus[:third])
	middle = median(cpus[third : len(cpus)-third])
	last = median(cpus[len(cpus)-third:])
	drift = ratio(last-first, first)
	rising := first < middle && middle < last
	return first, middle, last, drift, !(rising && drift > steadyBound)
}

// cpuPerJob is the process CPU per completed job between two snapshots.
func cpuPerJob(a, b snapshot, w windowStats) float64 {
	return ratio(float64(b.cpu-a.cpu)/1e6, float64(w.done))
}

// subWindowCPU lists cpu_ms_per_job for each sub-window.
func subWindowCPU(recs []jobRec, snaps []snapshot) []float64 {
	out := make([]float64, len(snaps)-1)
	for i := range out {
		out[i] = cpuPerJob(snaps[i], snaps[i+1], stats(recs, snaps[i].at, snaps[i+1].at))
	}
	return out
}

// endToEnd derives the user-visible metrics of a window from its
// sub-window snapshots. Rates and costs are the median over the
// sub-windows, so a burst of outside load in one of them does not move
// them; latency percentiles pool the whole window's samples.
func endToEnd(recs []jobRec, snaps []snapshot, setup float64) metricSet {
	var jobsPS, mbPS, cpu, alloc, master []float64
	for i := 0; i+1 < len(snaps); i++ {
		a, b := snaps[i], snaps[i+1]
		w := stats(recs, a.at, b.at)
		done := float64(w.done)
		jobsPS = append(jobsPS, done/w.secs())
		mbPS = append(mbPS, float64(w.bytes)/1e6/w.secs())
		cpu = append(cpu, cpuPerJob(a, b, w))
		alloc = append(alloc, ratio(float64(b.allocBytes-a.allocBytes)/1e6, done))
		master = append(master, ratio(float64(b.masterBytes-a.masterBytes), float64(b.sentBytes-a.sentBytes)))
	}
	whole := stats(recs, snaps[0].at, snaps[len(snaps)-1].at)
	var m metricSet
	m.add("setup_s", "s", setup)
	m.add("jobs_per_s", "1/s", median(jobsPS))
	m.add("input_mb_per_s", "MB/s", median(mbPS))
	m.add("job_p50_ms", "ms", quantile(whole.lat, 0.5))
	m.add("job_p90_ms", "ms", quantile(whole.lat, 0.9))
	m.add("cpu_ms_per_job", "ms", median(cpu))
	m.add("alloc_mb_per_job", "MB", median(alloc))
	m.add("peak_rss_mb", "MB", peakRSSMB())
	m.add("master_in_ratio", "ratio", median(master))
	return m
}

// setUp builds one deployment and completes its first job, over and
// over for at least setupRuns times and setupSpan. It returns the last
// deployment, still running, and every set-up's duration in seconds.
func setUp(cfg config, tr *tracer) (*fabric, []float64, error) {
	var (
		f      *fabric
		setups []float64
	)
	for began := time.Now(); len(setups) < setupRuns || time.Since(began) < setupSpan; {
		if f != nil {
			f.close()
			time.Sleep(setupGap)
		}
		start := time.Now()
		var err error
		if f, err = newFabric(cfg.wl, cfg.seed, tr, cfg.traced); err != nil {
			return nil, nil, err
		}
		rec := jobRec{id: f.next.Add(1), start: tr.now()}
		f.runJob(&rec, f.src.job(rec.id))
		setups = append(setups, time.Since(start).Seconds())
		if rec.err != nil {
			f.close()
			return nil, nil, fmt.Errorf("first job: %w", rec.err)
		}
	}
	return f, setups, nil
}

// measurement is what one run records: every job of the load, the
// counter snapshots of the untraced window (and of the traced window
// after it, when tracing) and the gauges sampled in the untraced window.
type measurement struct {
	recs             []jobRec
	untraced, traced []snapshot
	gauges           gauges
}

// measure runs the workload's load on f for the warm-up, then through
// the untraced window and, when tracing, the traced window. It returns
// once every job has completed.
func measure(cfg config, f *fabric) *measurement {
	m := &measurement{}
	loadStart := f.tr.now()
	t0 := loadStart + int64(warmup)
	span := int64(cfg.seconds)
	end := t0 + span
	if cfg.traced {
		end += span
	}
	recsc := make(chan []jobRec, 1)
	go func() {
		if cfg.wl.callers > 0 {
			recsc <- f.closedLoop(cfg.wl.callers, end)
		} else {
			recsc <- f.openLoop(cfg.wl.rate, loadStart, end)
		}
	}()

	f.sleepUntil(t0)
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		f.sample(&m.gauges, sampleEvery, stopSampling)
	}()
	m.untraced = f.snapshots(t0, span)
	close(stopSampling)
	<-sampled
	if cfg.traced {
		f.tr.on.Store(true)
		m.traced = f.snapshots(t0+span, span)
		f.tr.on.Store(false)
	}
	m.recs = <-recsc
	return m
}

// settledLeak returns the pooled buffer references acquired but not
// released once the closed deployment has drained: goroutines still
// unwinding when Close returns may release a reference a moment later,
// so the counters are polled until they balance or leakSettle passes.
func settledLeak() int64 {
	deadline := time.Now().Add(leakSettle)
	for {
		st := bufpool.ReadStats()
		leaked := st.Acquires() - st.Releases
		if leaked == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func bench(cfg config) (*result, error) {
	tr := newTracer(time.Now())
	f, setups, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	m := measure(cfg, f)
	f.close()
	leaked := settledLeak()

	res := &result{}
	a, b := m.untraced[0], m.untraced[subWindows]
	win := stats(m.recs, a.at, b.at)
	res.attempted, res.failed = win.attempted, win.failed
	untraced := endToEnd(m.recs, m.untraced, median(setups))

	res.notes = append(res.notes,
		fmt.Sprintf("%d set-ups (s): %.4f", len(setups), setups),
		fmt.Sprintf("window: %d jobs attempted, %d failed (failed_frac %.4f), %d latency samples, %d beyond p95",
			win.attempted, win.failed, ratio(float64(win.failed), float64(win.attempted)), len(win.lat), beyond(len(win.lat), 0.95)),
	)
	res.notes = append(res.notes, fmt.Sprintf("latency ms: p50 %.2f  p75 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f",
		quantile(win.lat, 0.5), quantile(win.lat, 0.75), quantile(win.lat, 0.9), quantile(win.lat, 0.95), quantile(win.lat, 0.99), quantile(win.lat, 1)))
	if all := stats(m.recs, 0, tr.now()); all.failed > 0 {
		kinds := map[string]int{}
		var first error
		for _, r := range m.recs {
			if r.err != nil {
				kinds[r.kind]++
				if first == nil {
					first = r.err
				}
			}
		}
		res.problems = append(res.problems, fmt.Sprintf("%d of %d jobs failed %v; first: %v", all.failed, all.attempted, kinds, first))
	}
	if leaked != 0 {
		res.problems = append(res.problems, fmt.Sprintf("bufpool leaked %d buffer references after Close", leaked))
	}
	cpus := subWindowCPU(m.recs, m.untraced)
	adjusted := speedAdjusted(cpus, m.untraced, m.gauges.probes)
	first, middle, last, drift, steady := steadyState(adjusted)
	res.notes = append(res.notes,
		fmt.Sprintf("steady state: cpu_ms_per_job per sub-window %.2f; host-speed adjusted %.2f", cpus, adjusted),
		fmt.Sprintf("  adjusted thirds %.4f %.4f %.4f (drift %+.3f, bound %.2f; %d speed probes)",
			first, middle, last, drift, steadyBound, len(m.gauges.probes)))
	if !steady {
		res.problems = append(res.problems, fmt.Sprintf("not at steady state: cpu_ms_per_job rose %+.3f across the window", drift))
	}
	if n := beyond(len(win.lat), 0.95); n < 10 {
		res.problems = append(res.problems, fmt.Sprintf("only %d latency samples beyond p95; need 10", n))
	}

	if !cfg.traced {
		res.metrics = untraced
	} else {
		c, d := m.traced[0], m.traced[subWindows]
		traced := stats(m.recs, c.at, d.at)
		tracedE2E := endToEnd(m.recs, m.traced, median(setups))
		spans := tr.spans
		res.metrics, res.zero = layers(win, a, b, traced, c, d, &m.gauges, spans, leaked)
		self := selfTimes(spans)
		res.metrics.addSelf(self, float64(traced.done))
		res.metrics.addOverhead(untraced, tracedE2E, len(spans))
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.wl.name, cfg.seed))
		if err := writeTrace(path, spans, self, [2]int64{c.at, d.at}); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.notes = append(res.notes, "spans written to "+path, "end-to-end, untraced window then traced window:")
		for i := range untraced {
			res.notes = append(res.notes, fmt.Sprintf("  %-20s %12.4f %12.4f %s",
				untraced[i].name, untraced[i].value, tracedE2E[i].value, untraced[i].unit))
		}
	}
	res.correct = len(res.problems) == 0
	return res, nil
}
