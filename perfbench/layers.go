package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"netagg/internal/bufpool"
	"netagg/internal/obs"
)

// snapshot reads every layer's public counters at one edge of a
// measurement window. Per-window figures are differences of two
// snapshots.
type snapshot struct {
	at       int64 // ns since the epoch
	cpu      time.Duration
	counters map[string]int64 // obs.Default counters
	pool     bufpool.Stats
	// Summed over the deployment's boxes.
	taskBusy time.Duration
	tasks    int64
	requests int64

	masterBytes int64
	sentBytes   int64

	gcCycles, allocBytes, allocObjects uint64
	gcCPU                              float64 // seconds
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // getrusage fails only for a bad pointer or an unknown "who"
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (f *fabric) snapshot() snapshot {
	s := snapshot{
		at:          f.tr.now(),
		cpu:         processCPU(),
		counters:    obs.Default.Snapshot().Counters,
		pool:        bufpool.ReadStats(),
		masterBytes: f.tb.Master.ResultBytes(),
		sentBytes:   f.sentBytes.Load(),
	}
	for _, b := range f.tb.Boxes {
		s.taskBusy += b.Scheduler().CPUTime(f.wl.app)
		_, done := b.Scheduler().TaskCounts(f.wl.app)
		s.tasks += done
		s.requests += b.Stats().Requests
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	s.gcCycles = rs[0].Value.Uint64()
	s.allocBytes = rs[1].Value.Uint64()
	s.allocObjects = rs[2].Value.Uint64()
	s.gcCPU = rs[3].Value.Float64()
	return s
}

// gauges accumulates the sampled gauges of a window: box queue depth and
// flush-latency EWMA (one reading per box per tick) and live heap bytes.
// Only the sampling goroutine writes it; it is read once that goroutine
// has returned.
type gauges struct {
	depthSum, depthN int64
	depthMax         int64
	flushSum, flushN int64
	heapSum          float64
	heapN            int64
	probes           []probeReading
}

// sample reads the gauges every interval, and runs the host-speed probe
// every probeEvery intervals, until stop is closed.
func (f *fabric) sample(g *gauges, interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	probe := newSpeedProbe()
	for n := 1; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if n%probeEvery == 0 {
			g.probes = append(g.probes, probeReading{at: f.tr.now(), cost: probe.run()})
		}
		metrics.Read(heap)
		for _, b := range f.tb.Boxes {
			d := int64(b.QueueDepth())
			g.depthSum += d
			g.depthN++
			g.depthMax = max(g.depthMax, d)
			if us := b.FlushLatencyUs(); us > 0 {
				g.flushSum += us
				g.flushN++
			}
		}
		g.heapSum += float64(heap[0].Value.Uint64())
		g.heapN++
	}
}

const (
	// probeLen sizes the host-speed probe: sorting it takes ~0.7 ms.
	probeLen = 1 << 13
	// probeEvery is how many gauge samples pass between probes (100 ms).
	probeEvery = 20
)

// speedProbe measures how fast the host runs right now: the thread CPU
// time of sorting a fixed array. The host's other tenants make the same
// code 10-20% slower or faster within seconds; the probe shares the
// load's CPUs and slows with it, so CPU per job divided by the probe's
// reading separates the program's cost from the host's speed.
type speedProbe struct {
	data, scratch []uint64
}

type probeReading struct {
	at   int64 // ns since the epoch
	cost time.Duration
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{data: make([]uint64, probeLen), scratch: make([]uint64, probeLen)}
	for i := range p.data {
		p.data[i] = rng.Uint64()
	}
	return p
}

func (p *speedProbe) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	copy(p.scratch, p.data)
	slices.Sort(p.scratch)
	return threadCPU() - start
}

// threadCPU reads the calling thread's CPU clock. getrusage's per-thread
// times are tick-sampled and too coarse for a sub-millisecond probe.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // clock_gettime fails only for a bad pointer or clock ID
	}
	return time.Duration(ts.Nano())
}

// speedAdjusted scales each sub-window's value by the host's speed in
// that sub-window: the median probe cost of the whole window over the
// sub-window's median probe cost.
func speedAdjusted(values []float64, snaps []snapshot, probes []probeReading) []float64 {
	all := make([]float64, len(probes))
	for i, p := range probes {
		all[i] = float64(p.cost)
	}
	out := append([]float64(nil), values...)
	if len(all) == 0 {
		return out
	}
	ref := median(all)
	for i := range out {
		var in []float64
		for _, p := range probes {
			if p.at >= snaps[i].at && p.at < snaps[i+1].at {
				in = append(in, float64(p.cost))
			}
		}
		if len(in) > 0 {
			out[i] *= ref / median(in)
		}
	}
	return out
}

// peakRSSMB reads the process's high-water resident set size (VmHWM);
// it is 0 where /proc/self/status does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) >= 2 && string(fields[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(fields[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// layers derives the per-layer metrics. Counter deltas come from the
// untraced window [a, b) (win); span figures from the traced window
// [c, d) (traced), whose spans are the only ones recorded. The second set
// holds the counts that are 0 on correct code at this load (faults,
// retries, queue waits, late jobs): the readable table prints them, the
// JSON does not, because a metric that is 0 on the parent cannot be
// compared against it.
func layers(win windowStats, a, b snapshot, traced windowStats, c, d snapshot, g *gauges, spans []span, leaked int64) (m, zero metricSet) {
	jobs, tjobs := float64(win.done), float64(traced.done)
	delta := func(name string) float64 { return float64(b.counters[name] - a.counters[name]) }
	perJob := func(v float64) float64 { return ratio(v, jobs) }

	var combineUs, planUs, submitUs, sendUs, waitMs []float64
	var combineNs, combineIn, combineOut int64
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case spanCombi:
			combineUs = append(combineUs, us)
			combineNs += s.dur()
			combineIn += int64(s.In)
			combineOut += int64(s.Out)
		case spanPlan:
			planUs = append(planUs, us)
		case spanSub:
			submitUs = append(submitUs, us)
		case spanSend:
			sendUs = append(sendUs, us)
		case spanWait:
			waitMs = append(waitMs, us/1e3)
		}
	}
	combineMsPerJob := ratio(float64(combineNs)/1e6, tjobs)
	m.add("agg.combine_calls_per_job", "count", ratio(float64(len(combineUs)), tjobs))
	m.add("agg.combine_ms_per_job", "ms", combineMsPerJob)
	m.add("agg.combine_us_p50", "us", quantile(combineUs, 0.5))
	m.add("agg.combine_us_p99", "us", quantile(combineUs, 0.99))
	m.add("agg.combine_in_kb_per_job", "KB", ratio(float64(combineIn)/1024, tjobs))
	m.add("agg.combine_out_in_ratio", "ratio", ratio(float64(combineOut), float64(combineIn)))

	m.add("core.task_busy_ms_per_job", "ms", perJob(float64(b.taskBusy-a.taskBusy)/1e6))
	// Busy and Combine time of one window: the host's speed moves 10-20%
	// between the untraced and the traced window, as much as the
	// difference itself.
	tracedBusyMs := ratio(float64(d.taskBusy-c.taskBusy)/1e6, tjobs)
	m.add("core.task_overhead_ms_per_job", "ms", tracedBusyMs-combineMsPerJob)
	m.add("core.tasks_per_job", "count", perJob(float64(b.tasks-a.tasks)))
	m.add("core.requests_per_job", "count", perJob(float64(b.requests-a.requests)))
	m.add("core.queue_depth_mean", "count", ratio(float64(g.depthSum), float64(g.depthN)))
	m.add("core.queue_depth_max", "count", float64(g.depthMax))
	m.add("core.flush_us_mean", "us", ratio(float64(g.flushSum), float64(g.flushN)))
	m.add("core.cutthrough_frac", "ratio", ratio(delta("box.cutthrough_merges"), delta("box.combines")))
	heapMB := ratio(g.heapSum, float64(g.heapN)) / 1e6

	m.add("shim.submit_us_p50", "us", quantile(submitUs, 0.5))
	m.add("shim.submit_us_p95", "us", quantile(submitUs, 0.95))
	m.add("shim.send_us_p50", "us", quantile(sendUs, 0.5))
	m.add("shim.send_us_p99", "us", quantile(sendUs, 0.99))
	m.add("shim.fabric_wait_ms_p50", "ms", quantile(waitMs, 0.5))
	m.add("shim.fabric_wait_ms_p95", "ms", quantile(waitMs, 0.95))
	zero.add("shim.redirects", "count", delta("shim.redirects_sent"))
	zero.add("shim.dup_frames", "count", delta("shim.dup_frames_dropped"))

	m.add("treeplan.plan_calls_per_job", "count", ratio(float64(len(planUs)), tjobs))
	m.add("treeplan.plan_us_p50", "us", quantile(planUs, 0.5))
	m.add("treeplan.plan_us_p99", "us", quantile(planUs, 0.99))

	m.add("transport.frames_per_job", "count", perJob(delta("transport.frames_out")))
	m.add("transport.kb_per_job", "KB", perJob(delta("transport.bytes_out")/1024))
	m.add("transport.writev_per_job", "count", perJob(delta("transport.writev_calls")))
	m.add("transport.frames_per_writev", "count", ratio(delta("transport.batch_frames"), delta("transport.writev_calls")))
	zero.add("transport.sendq_waits_per_job", "count", perJob(delta("transport.sendq_waits")))
	zero.add("transport.reconnects", "count", delta("transport.reconnects"))
	zero.add("transport.replayed", "count", delta("transport.replayed"))

	m.add("bufpool.gets_per_job", "count", perJob(float64(b.pool.Gets-a.pool.Gets)))
	m.add("bufpool.adopts_per_job", "count", perJob(float64(b.pool.Adopts-a.pool.Adopts)))
	zero.add("bufpool.leaked", "count", float64(leaked))

	cpuS := float64(b.cpu-a.cpu) / 1e9
	m.add("runtime.gc_cycles_per_job", "count", perJob(float64(b.gcCycles-a.gcCycles)))
	m.add("runtime.gc_cpu_frac", "ratio", ratio(b.gcCPU-a.gcCPU, cpuS))
	m.add("runtime.allocs_per_job", "count", perJob(float64(b.allocObjects-a.allocObjects)))
	m.add("runtime.heap_live_mb_mean", "MB", heapMB)

	m.add("loadgen.lag_ms_max", "ms", float64(win.lagMax)/1e6)
	zero.add("loadgen.late_frac", "ratio", ratio(float64(win.late), float64(win.attempted)))
	return m, zero
}

// addSelf reports the traced window's self time per job of the shim calls
// (minus the planning they contain), of planning and of Combine.
func (m *metricSet) addSelf(self map[string]int64, jobs float64) {
	ms := func(ns int64) float64 { return ratio(float64(ns)/1e6, jobs) }
	m.add("shim.self_ms_per_job", "ms", ms(self[spanSub]+self[spanSend]))
	m.add("treeplan.self_ms_per_job", "ms", ms(self[spanPlan]))
	m.add("agg.self_ms_per_job", "ms", ms(self[spanCombi]))
}

// addOverhead reports the tracing overhead: the traced window's
// end-to-end metrics over the untraced window's (1 is no overhead).
func (m *metricSet) addOverhead(untraced, traced metricSet, spans int) {
	for i, u := range untraced {
		switch u.name {
		case "jobs_per_s", "cpu_ms_per_job", "job_p50_ms", "job_p90_ms":
			m.add("trace.overhead_"+u.name+"_ratio", "ratio", ratio(traced[i].value, u.value))
		}
	}
	m.add("trace.spans", "count", float64(spans))
}

// snapshots reads the counters at the start of a window of length span
// beginning at the epoch offset from and at the end of each of its
// sub-windows.
func (f *fabric) snapshots(from, span int64) []snapshot {
	snaps := make([]snapshot, subWindows+1)
	for i := range snaps {
		f.sleepUntil(from + span*int64(i)/subWindows)
		snaps[i] = f.snapshot()
	}
	return snaps
}

// sleepUntil sleeps until the epoch offset t.
func (f *fabric) sleepUntil(t int64) {
	if d := t - f.tr.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
