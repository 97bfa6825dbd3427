package harness

import (
	"encoding/json"
	"io"

	"spthreads/internal/analyze"
	"spthreads/internal/metrics"
	"spthreads/internal/spaceprof"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// Machine-readable experiment output. Experiments that implement a JSON
// emitter produce a BenchResult, written by `ptbench -json` as
// BENCH_<id>.json and validated in CI against testdata/bench.schema.json.

// BenchRun is one measured configuration (policy x processors) of an
// experiment.
type BenchRun struct {
	Policy string `json:"policy"`
	Procs  int    `json:"procs,omitempty"`
	// Bench names the benchmark program for experiments that sweep
	// several under one id (the bound-audit matrix).
	Bench string `json:"bench,omitempty"`
	// Batch is the scheduler batch size B for the contention experiment
	// (1 = direct per-operation locking).
	Batch int `json:"batch,omitempty"`
	// Backend names the execution backend for the backend-comparison
	// experiment ("sim" or "native"; empty rows are sim).
	Backend string `json:"backend,omitempty"`
	// Shard marks rows run with the sharded scheduler (per-worker
	// DePa-label heaps with bounded-deviation stealing); StealWindow is
	// its deviation bound K (0 on sharded rows means the default K=p).
	Shard       bool `json:"shard,omitempty"`
	StealWindow int  `json:"steal_window,omitempty"`
	// LockWaitVsGlobalPct is a native sharded row's total scheduler
	// lock wait as a percentage of the matching global-store baseline
	// row (host-dependent; report-only, bounded by benchdiff -max).
	LockWaitVsGlobalPct float64 `json:"lock_wait_vs_global_pct,omitempty"`

	// Wall-clock runtime in milliseconds, host-measured around the run
	// (the median run when Repeat > 1). The only meaningful time under
	// the native backend; informational for sim rows.
	WallMS float64 `json:"wall_ms,omitempty"`
	// Repeat is how many repetitions the wall-clock median was taken
	// over.
	Repeat int `json:"repeat,omitempty"`

	// Virtual-time results.
	TimeCycles int64   `json:"time_cycles,omitempty"`
	TimeUS     float64 `json:"time_us,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`

	// Space results in bytes.
	HeapHWM  int64 `json:"heap_hwm_bytes,omitempty"`
	StackHWM int64 `json:"stack_hwm_bytes,omitempty"`
	TotalHWM int64 `json:"total_hwm_bytes,omitempty"`

	// Thread accounting.
	ThreadsCreated int64 `json:"threads_created,omitempty"`
	DummyThreads   int64 `json:"dummy_threads,omitempty"`
	PeakLive       int   `json:"peak_live,omitempty"`

	// Metrics is the run's instrument snapshot (dispatch latencies, lock
	// waits, quota preemptions, ADF placeholder gauge, ...).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`

	// Space is the run's space-over-time curve (downsampled), present
	// for experiments that profile space.
	Space []spaceprof.Sample `json:"space,omitempty"`

	// Native-observability results (the native-obs experiment). Tracer
	// marks rows measured with the event tracer attached; TraceEvents is
	// the median run's merged event count (plus drops, if any);
	// OverheadPct is the tracer-on wall-clock overhead over the matching
	// tracer-off row, the gated metric.
	Tracer       bool    `json:"tracer,omitempty"`
	TraceEvents  int64   `json:"trace_events,omitempty"`
	TraceDropped int64   `json:"trace_dropped,omitempty"`
	OverheadPct  float64 `json:"overhead_pct,omitempty"`

	// Analysis is the trace analyzer's report (W/D/S1/critical path),
	// present for experiments that reconstruct the run DAG.
	Analysis *analyze.Report `json:"analysis,omitempty"`
}

// BenchResult is one experiment's machine-readable output.
type BenchResult struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Scale      string     `json:"scale"`
	Runs       []BenchRun `json:"runs"`
}

// Write marshals the result as indented JSON.
func (r *BenchResult) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// instrumentedRun executes a program with a metrics registry attached
// and converts the stats into a BenchRun.
func instrumentedRun(cfg pthread.Config, prog func(*pthread.T)) BenchRun {
	cfg.Metrics = pthread.NewMetrics()
	st := run(cfg, prog)
	return statsRun(cfg.Policy, cfg.Procs, st)
}

// statsRun converts run stats to a BenchRun row.
func statsRun(policy pthread.Policy, procs int, st pthread.Stats) BenchRun {
	if procs <= 0 {
		procs = 1
	}
	return BenchRun{
		Policy:         string(policy),
		Procs:          procs,
		TimeCycles:     int64(st.Time),
		TimeUS:         st.Time.Microseconds(),
		HeapHWM:        st.HeapHWM,
		StackHWM:       st.StackHWM,
		TotalHWM:       st.TotalHWM,
		ThreadsCreated: st.ThreadsCreated,
		DummyThreads:   st.DummyThreads,
		PeakLive:       st.PeakLive,
		Metrics:        st.Metrics,
	}
}

// scaleName normalizes the Options scale for reports.
func scaleName(opt Options) string {
	if opt.paper() {
		return "paper"
	}
	return "small"
}

// jsonFig1 reruns the Figure 1 scenario with instruments attached.
func jsonFig1(opt Options) (*BenchResult, error) {
	prog := func(t *pthread.T) {
		leaf := func(tt *pthread.T) { tt.Charge(10) }
		node := func(tt *pthread.T) { tt.Par(leaf, leaf) }
		t.Par(node, node)
	}
	res := &BenchResult{Experiment: "fig1", Scale: scaleName(opt),
		Title: "Active threads under FIFO vs LIFO vs depth-first (Figure 1)"}
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF} {
		res.Runs = append(res.Runs, instrumentedRun(pthread.Config{Procs: 1, Policy: pol}, prog))
	}
	return res, nil
}

// spaceProfileEvery coalesces space samples to one per virtual 100us,
// keeping JSON outputs compact without losing interval peaks.
const spaceProfileEvery = vtime.Duration(100 * vtime.CyclesPerMicrosecond)

// spaceRun executes prog with both instruments and the space profiler
// attached and attaches the downsampled curve to the run row.
func spaceRun(cfg pthread.Config, prog func(*pthread.T), points int) BenchRun {
	cfg.Metrics = pthread.NewMetrics()
	prof := spaceprof.New(spaceProfileEvery)
	cfg.SpaceProf = prof
	st := run(cfg, prog)
	row := statsRun(cfg.Policy, cfg.Procs, st)
	row.Space = prof.Downsample(points)
	return row
}
