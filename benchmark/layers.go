package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"

	"spthreads/pthread"
)

// spanTimings are the timings drawn from the spans of an arm's traced
// passes, pooled over passes, in nanoseconds.
type spanTimings struct {
	forkToStart []float64 // create call start -> child body start
	createSelf  []float64 // create span minus the part the child's body covers
	exitToJoin  []float64 // child body end -> join return, joins that waited
	joinFast    []float64 // join call time when the child had already ended
	byKind      [numSpanKinds][]float64
}

// forkPathNS is the time the spans attribute to the fork path itself:
// creates net of the child's body, joins of finished threads, and the
// gap from a thread's end to its joiner's return.
func (st *spanTimings) forkPathNS() float64 {
	total := 0.0
	for _, xs := range [][]float64{st.createSelf, st.joinFast, st.exitToJoin} {
		for _, x := range xs {
			total += x
		}
	}
	return total
}

// add draws the timings from one pass's spans.
func (st *spanTimings) add(spans []span) {
	childOf := make(map[uint64]*span) // create span id -> the body it caused
	for i := range spans {
		s := &spans[i]
		if s.kind == spanBody && s.parent != 0 {
			childOf[s.parent] = s
		}
	}
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		st.byKind[s.kind] = append(st.byKind[s.kind], float64(s.dur()))
		switch s.kind {
		case spanCreate:
			st.createSelf = append(st.createSelf, float64(self[s.id]))
			if child := childOf[s.id]; child != nil {
				st.forkToStart = append(st.forkToStart, float64(child.start-s.start))
			}
		case spanJoin:
			child := childOf[s.link]
			switch {
			case child == nil:
			case child.end <= s.start:
				st.joinFast = append(st.joinFast, float64(s.dur()))
			default:
				st.exitToJoin = append(st.exitToJoin, float64(s.end-child.end))
			}
		}
	}
}

// hi is the value of the highest resolved percentile (see highTail).
func hi(xs []float64) float64 {
	v, _ := highTail(xs)
	return v
}

// perLayerNames lists every per-layer metric, in catalogue order, with
// its unit. BENCHMARK.json and the README carry the same list.
var perLayerNames = []struct{ name, unit string }{
	{"pthread.ns_per_op", "ns"}, {"pthread.ns_per_op_p1", "ns"}, {"pthread.speedup", "ratio"},
	{"pthread.wall_hi_ms", "ms"}, {"pthread.wall_iqr_pct", "%"}, {"pthread.peak_live", "count"},
	{"pthread.dummy_threads", "count"}, {"pthread.run_empty_native_us", "us"}, {"pthread.run_empty_sim_us", "us"},
	{"native.fork_to_start_p50_ns", "ns"}, {"native.fork_to_start_hi_ns", "ns"}, {"native.create_self_p50_ns", "ns"},
	{"native.exit_to_join_p50_ns", "ns"}, {"native.exit_to_join_hi_ns", "ns"}, {"native.join_fast_p50_ns", "ns"},
	{"native.malloc_p50_ns", "ns"}, {"native.malloc_hi_ns", "ns"}, {"native.malloc_preempt_p50_ns", "ns"},
	{"native.malloc_dummy_p50_ns", "ns"}, {"native.free_p50_ns", "ns"},
	{"native.mutex_lock_p50_ns", "ns"}, {"native.cond_handoff_p50_ns", "ns"}, {"native.cond_handoff_hi_ns", "ns"},
	{"native.sem_pingpong_ns", "ns"}, {"native.barrier_round_ns", "ns"},
	{"native.sync_pipeline_ms", "ms"}, {"native.sync_barrier_ms", "ms"}, {"native.sync_pingpong_ms", "ms"},
	{"native.dispatches_per_op", "ratio"}, {"native.worker_dispatch_skew", "ratio"},
	{"native.sched_lock_wait_ns_per_op", "ns"}, {"native.dispatch_wait_p50_ns", "ns"}, {"native.dispatch_wait_p99_ns", "ns"},
	{"native.resume_handoff_p50_ns", "ns"}, {"native.quota_preempts", "count"}, {"native.steals", "count"},
	{"sched.adf_cycle_n100_ns", "ns"}, {"sched.adf_cycle_n10000_ns", "ns"}, {"sched.adf_fork_exit_ns", "ns"}, {"sched.fifo_cycle_ns", "ns"},
	{"core.depa_fork_ns", "ns"}, {"core.depa_compare_ns", "ns"},
	{"core.sim_makespan_us", "us"}, {"core.sim_work_pct", "%"}, {"core.sim_threadops_pct", "%"}, {"core.sim_mem_pct", "%"},
	{"core.sim_sched_pct", "%"}, {"core.sim_lockwait_pct", "%"}, {"core.sim_idle_pct", "%"},
	{"core.sim_dispatches", "count"}, {"core.sim_host_ns_per_dispatch", "ns"},
	{"memsim.alloc_free_ns", "ns"}, {"memsim.touch_ns", "ns"},
	{"trace.ring_record_ns", "ns"}, {"metrics.hist_observe_ns", "ns"}, {"metrics.counter_add_ns", "ns"},
	{"bench.trace_overhead_pct", "%"}, {"bench.yardstick_ms", "ms"},
	{"matmul.wall_ms", "ms"}, {"matmul.wall_p1_ms", "ms"}, {"barneshut.wall_ms", "ms"}, {"barneshut.wall_p1_ms", "ms"},
	{"dtree.wall_ms", "ms"}, {"dtree.wall_p1_ms", "ms"}, {"fft.wall_ms", "ms"}, {"fft.wall_p1_ms", "ms"},
	{"spmv.wall_ms", "ms"}, {"spmv.wall_p1_ms", "ms"}, {"fmm.wall_ms", "ms"}, {"fmm.wall_p1_ms", "ms"},
	{"volrend.wall_ms", "ms"}, {"volrend.wall_p1_ms", "ms"},
	{"go.gc_cycles_per_run", "count"}, {"go.gc_pause_us_per_run", "us"}, {"go.mallocs_per_op", "count"},
	{"go.rss_peak_mb", "MB"}, {"go.goroutines_leaked", "count"},
}

// layerReport is the per-layer result of a traced run: a value for every
// catalogue row, and which rows this workload does not exercise. An
// absent row is printed as "absent" in the table and as 0 in the result
// line, which must carry every row.
type layerReport struct {
	rows   map[string]float64
	absent map[string]bool
	notes  map[string]string
}

func (m *run) totalOps(a *arm) int64 {
	var ops int64
	for i, p := range m.w.programs {
		ss := a.samples[i]
		ops += p.opCount(ss[len(ss)-1])
	}
	return ops
}

// passDispatches returns, per pass, the dispatch count of every worker
// summed over the pass's programs.
func passDispatches(a *arm) [][]float64 {
	out := make([][]float64, a.passes())
	for _, ss := range a.samples {
		for j, s := range ss {
			if out[j] == nil {
				out[j] = make([]float64, len(s.st.Procs))
			}
			for w, ps := range s.st.Procs {
				out[j][w] += float64(ps.Dispatches)
			}
		}
	}
	return out
}

// perLayer computes every per-layer row of a traced run; probes are the
// layer probes' rows.
func (m *run) perLayer(probes map[string]float64) layerReport {
	rep := layerReport{rows: map[string]float64{}, absent: map[string]bool{}, notes: map[string]string{}}
	set := func(name string, v float64) { rep.rows[name] = v }
	p1, pP := m.p1(), m.pP()
	native := m.w.backend == pthread.BackendNative
	ops := float64(m.totalOps(pP))

	// pthread: the library as its caller sees it.
	wall, wall1 := pP.sumOfMedians(wallMS), p1.sumOfMedians(wallMS)
	set("pthread.ns_per_op", wall*1e6/ops)
	set("pthread.ns_per_op_p1", wall1*1e6/float64(m.totalOps(p1)))
	if m.w.procsHi > 1 {
		set("pthread.speedup", wall1/wall)
	} else {
		rep.absent["pthread.speedup"] = true
		rep.notes["pthread.speedup"] = "unmeasured: nproc = 1"
	}
	passWalls := pP.passTotals(wallMS)
	tail, pct := highTail(passWalls)
	set("pthread.wall_hi_ms", tail)
	rep.notes["pthread.wall_hi_ms"] = "p" + strconv.FormatFloat(pct, 'g', -1, 64) + " of " + strconv.Itoa(len(passWalls)) + " passes"
	set("pthread.wall_iqr_pct", iqrPct(passWalls))
	peakLive := 0.0
	for _, v := range pP.perProgram(func(s sample) float64 { return float64(s.st.PeakLive) }) {
		peakLive = max(peakLive, v)
	}
	set("pthread.peak_live", peakLive)
	set("pthread.dummy_threads", pP.sumOfMedians(func(s sample) float64 { return float64(s.st.DummyThreads) }))

	// native, from the benchmark's own spans at pP.
	// (On sim the tree's spans time the simulator's coordinator, not the
	// native runtime, so these rows are absent there.)
	var tm spanTimings
	if native {
		tm = m.arm(m.w.procsHi, true).timings
	}
	spanRow := func(name string, xs []float64, f func([]float64) float64) {
		if len(xs) == 0 {
			rep.absent[name] = true
			return
		}
		set(name, f(xs))
	}
	spanRow("native.fork_to_start_p50_ns", tm.forkToStart, median)
	spanRow("native.fork_to_start_hi_ns", tm.forkToStart, hi)
	spanRow("native.create_self_p50_ns", tm.createSelf, median)
	spanRow("native.exit_to_join_p50_ns", tm.exitToJoin, median)
	spanRow("native.exit_to_join_hi_ns", tm.exitToJoin, hi)
	spanRow("native.join_fast_p50_ns", tm.joinFast, median)
	mallocs := append(append(append([]float64(nil), tm.byKind[spanMalloc]...), tm.byKind[spanMallocPreempt]...), tm.byKind[spanMallocDummy]...)
	spanRow("native.malloc_p50_ns", mallocs, median)
	spanRow("native.malloc_hi_ns", mallocs, hi)
	spanRow("native.malloc_preempt_p50_ns", tm.byKind[spanMallocPreempt], median)
	spanRow("native.malloc_dummy_p50_ns", tm.byKind[spanMallocDummy], median)
	spanRow("native.free_p50_ns", tm.byKind[spanFree], median)
	spanRow("native.mutex_lock_p50_ns", tm.byKind[spanMutexLock], median)
	spanRow("native.cond_handoff_p50_ns", tm.byKind[spanCondHandoff], median)
	spanRow("native.cond_handoff_hi_ns", tm.byKind[spanCondHandoff], hi)

	// native, syncpipe's three phases (untraced walls at pP).
	if m.w.name == "syncpipe" {
		for i, ms := range pP.perProgram(wallMS) {
			set("native.sync_"+m.w.programs[i].name+"_ms", ms)
		}
		set("native.barrier_round_ns", rep.rows["native.sync_barrier_ms"]*1e6/float64(m.w.syncSz.rounds))
		set("native.sem_pingpong_ns", rep.rows["native.sync_pingpong_ms"]*1e6/float64(m.w.syncSz.trips))
	} else {
		for _, n := range []string{"native.sync_pipeline_ms", "native.sync_barrier_ms", "native.sync_pingpong_ms", "native.barrier_round_ns", "native.sem_pingpong_ns"} {
			rep.absent[n] = true
		}
	}

	// native, from Stats: how evenly the workers shared the dispatches.
	if native {
		var perOp, skew []float64
		for _, workers := range passDispatches(pP) {
			total, most := 0.0, 0.0
			for _, d := range workers {
				total += d
				most = max(most, d)
			}
			perOp = append(perOp, total/ops)
			skew = append(skew, most/(total/float64(len(workers))))
		}
		set("native.dispatches_per_op", median(perOp))
		set("native.worker_dispatch_skew", median(skew))
	} else {
		rep.absent["native.dispatches_per_op"] = true
		rep.absent["native.worker_dispatch_skew"] = true
	}

	// native, the runtime's own instruments in the traced runs at pP.
	instRows := []string{"native.sched_lock_wait_ns_per_op", "native.dispatch_wait_p50_ns", "native.dispatch_wait_p99_ns",
		"native.resume_handoff_p50_ns", "native.quota_preempts", "native.steals"}
	byRow := map[string][]float64{}
	if native {
		tr := m.arm(m.w.procsHi, true)
		for j := 0; j < tr.passes(); j++ {
			pass := make([]sample, len(tr.samples))
			for i := range tr.samples {
				pass[i] = tr.samples[i][j]
			}
			for name, v := range readInstruments(pass, m.totalOps(tr)) {
				byRow[name] = append(byRow[name], v)
			}
		}
	}
	for _, name := range instRows {
		spanRow(name, byRow[name], median)
	}

	// sched, core, memsim, trace, metrics and the empty-run probes.
	for name, v := range probes {
		set(name, v)
	}

	// core, the simulator's own exact figures at p = 8.
	simRows := []string{"core.sim_makespan_us", "core.sim_work_pct", "core.sim_threadops_pct", "core.sim_mem_pct",
		"core.sim_sched_pct", "core.sim_lockwait_pct", "core.sim_idle_pct", "core.sim_dispatches", "core.sim_host_ns_per_dispatch"}
	if native {
		for _, n := range simRows {
			rep.absent[n] = true
		}
	} else {
		var makespan, work, tops, mem, sch, lock, idle, disp float64
		for _, ss := range pP.samples {
			st := ss[0].st // every pass is bit-identical (checked), so the first serves
			makespan += st.Time.Microseconds()
			for _, ps := range st.Procs {
				work += float64(ps.Work)
				tops += float64(ps.ThreadOps)
				mem += float64(ps.Mem)
				sch += float64(ps.Sched)
				lock += float64(ps.LockWait)
				idle += float64(ps.Idle)
				disp += float64(ps.Dispatches)
			}
		}
		total := (work + tops + mem + sch + lock + idle) / 100
		set("core.sim_makespan_us", makespan)
		set("core.sim_work_pct", work/total)
		set("core.sim_threadops_pct", tops/total)
		set("core.sim_mem_pct", mem/total)
		set("core.sim_sched_pct", sch/total)
		set("core.sim_lockwait_pct", lock/total)
		set("core.sim_idle_pct", idle/total)
		set("core.sim_dispatches", disp)
		set("core.sim_host_ns_per_dispatch", wall*1e6/disp)
	}

	// bench: what recording spans and filling the registry cost.
	set("bench.trace_overhead_pct", 100*(m.arm(m.w.procsHi, true).sumOfMedians(wallMS)/wall-1))
	// Every time in this table is as measured; the end-to-end times are
	// these divided by bench.yardstick_ms / yardstickNominalMS.
	set("bench.yardstick_ms", median(m.yard))

	// kernels: one row per program and arm, where the workload runs them.
	if m.w.name == "paper7" || m.w.name == "sim" {
		w1, wP := p1.perProgram(wallMS), pP.perProgram(wallMS)
		for i, k := range kernelNames {
			set(k+".wall_ms", wP[i])
			set(k+".wall_p1_ms", w1[i])
		}
	} else {
		for _, k := range kernelNames {
			rep.absent[k+".wall_ms"], rep.absent[k+".wall_p1_ms"] = true, true
		}
	}

	// The Go runtime under the program, per pass at pP.
	set("go.gc_cycles_per_run", median(pP.passTotals(func(s sample) float64 { return float64(s.gcCycles) })))
	set("go.gc_pause_us_per_run", median(pP.passTotals(func(s sample) float64 { return float64(s.gcPause) / 1e3 })))
	set("go.mallocs_per_op", median(pP.passTotals(func(s sample) float64 { return float64(s.mallocs) }))/ops)
	set("go.rss_peak_mb", rssPeakMB())
	leaked := 0.0
	for _, a := range m.arms {
		for _, v := range a.passTotals(func(s sample) float64 { return float64(s.leaked) }) {
			leaked = max(leaked, v)
		}
	}
	set("go.goroutines_leaked", leaked)

	for name := range rep.absent {
		rep.rows[name] = 0
	}
	return rep
}

// rssPeakMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that is not available.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stealTicks reads the time the hypervisor ran something else while this
// machine's CPUs were runnable (the 8th field of /proc/stat's cpu line,
// in clock ticks) together with the total; ok is false where there is no
// such file.
func stealTicks() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time (fields 9, 10) is already inside user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
