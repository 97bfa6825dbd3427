package harness

// The backend-comparison experiment: the same fine-grained programs on
// the deterministic simulator and on the native goroutine backend,
// timed by the host wall clock. Sim rows additionally report virtual
// time and are deterministic (CI gates them); native rows vary with
// the host and are reported, not gated.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

func init() {
	register(Experiment{
		ID:    "backends",
		Title: "Sim vs native execution backends, wall clock per program",
		What:  "Backend abstraction check (DESIGN 9): identical programs and policies on both substrates",
		Run:   runBackends,
		JSON:  jsonBackends,
	})
}

// backendBenches are the swept programs: all seven paper benchmarks,
// fine-grained variants, at the scale's problem sizes — the same
// workload matrix the sim-vs-native parity tests checksum.
func backendBenches(paper bool) []struct {
	name string
	prog func(*pthread.T)
} {
	return []struct {
		name string
		prog func(*pthread.T)
	}{
		{"matmul", matmul.Fine(matmulCfg(paper))},
		{"bhut", barneshut.Fine(barneshutCfg(paper))},
		{"dtree", dtree.Fine(dtreeCfg(paper))},
		{"fft", fft.Program(fftCfg(paper))},
		{"spmv", spmv.Fine(spmvCfg(paper))},
		{"fmm", fmm.Fine(fmmCfg(paper))},
		{"volrend", volrend.Fine(volrendCfg(paper))},
	}
}

// backendProcs is the default sweep; the native backend multiplexes
// workers on however many host CPUs exist.
var backendProcs = []int{1, 2, 4, 8}

// timedRun runs prog repeat times and returns the median-wall-time
// run's stats with the wall duration in milliseconds.
func timedRun(cfg pthread.Config, prog func(*pthread.T), repeat int) (pthread.Stats, float64) {
	type meas struct {
		st pthread.Stats
		ms float64
	}
	runs := make([]meas, 0, repeat)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		st := run(cfg, prog)
		runs = append(runs, meas{st, float64(time.Since(start).Nanoseconds()) / 1e6})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ms < runs[j].ms })
	m := runs[len(runs)/2]
	return m.st, m.ms
}

func backendConfig(backend pthread.Backend, procs int) pthread.Config {
	return pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		Backend:      backend,
		DefaultStack: pthread.SmallStackSize,
	}
}

func runBackends(w io.Writer, opt Options) error {
	repeat := opt.repeatCount()
	fmt.Fprintf(w, "ADF policy on every backend; wall clock is the median of %d run(s).\n", repeat)
	fmt.Fprintln(w, "Sim rows also report deterministic virtual time; native rows are host-dependent.")
	fmt.Fprintln(w)
	tb := newTable(w)
	tb.row("bench", "backend", "procs", "wall ms", "virtual us", "threads", "peak KB")
	for _, b := range backendBenches(opt.paper()) {
		for _, backend := range opt.backends() {
			for _, p := range opt.procs(backendProcs) {
				cfg := backendConfig(backend, p)
				st, ms := timedRun(cfg, b.prog, repeat)
				virtual := "-"
				if backend == pthread.BackendSim {
					virtual = fmt.Sprintf("%.0f", st.Time.Microseconds())
				}
				tb.row(b.name, string(backend), p,
					fmt.Sprintf("%.2f", ms), virtual,
					st.ThreadsCreated, fmt.Sprintf("%.0f", float64(st.TotalHWM)/1024))
			}
		}
	}
	tb.flush()
	return nil
}

func jsonBackends(opt Options) (*BenchResult, error) {
	repeat := opt.repeatCount()
	res := &BenchResult{Experiment: "backends", Scale: scaleName(opt),
		Title: "Sim vs native execution backends, wall clock per program"}
	for _, b := range backendBenches(opt.paper()) {
		for _, backend := range opt.backends() {
			for _, p := range opt.procs(backendProcs) {
				cfg := backendConfig(backend, p)
				cfg.Metrics = pthread.NewMetrics()
				st, ms := timedRun(cfg, b.prog, repeat)
				row := statsRun(cfg.Policy, p, st)
				row.Bench = b.name
				row.Backend = string(backend)
				row.WallMS = ms
				row.Repeat = repeat
				if backend == pthread.BackendNative {
					// Native virtual time is wall-derived and
					// host-dependent; leave only the wall clock.
					row.TimeCycles, row.TimeUS = 0, 0
				}
				res.Runs = append(res.Runs, row)
			}
		}
	}
	return res, nil
}
