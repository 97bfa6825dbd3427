package harness

import (
	"fmt"
	"io"

	"spthreads/internal/analyze"
	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/matmul"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// bound-audit: run representative benchmarks under FIFO, LIFO, and ADF
// with the trace recorder attached, reconstruct each run's DAG with the
// analyzer, and audit the measured peak footprint against the paper's
// S₁ + c·p·D bound. The constant c is fitted per policy — the smallest
// value covering all of that policy's runs — so the table shows how
// much parallel-slack headroom each scheduling discipline needs, which
// is the paper's central space claim in measurable form.

func init() {
	register(Experiment{
		ID:    "bound-audit",
		Title: "Space-bound audit: peak vs S1 + c*p*D from run traces (Section 2)",
		What:  "W, D, W/D, S1, measured peak, and fitted c per scheduler policy",
		Run:   runBoundAudit,
	})
}

// auditProcs picks the processor count audited: the last (largest) of
// the requested sweep, defaulting to 8 — the bound's p·D term only
// bites with real parallelism.
func auditProcs(opt Options) int {
	ps := opt.procs([]int{8})
	return ps[len(ps)-1]
}

// auditPrograms returns the three audited benchmarks: a regular
// divide-and-conquer (matmul), an irregular tree code (Barnes-Hut),
// and a data-dependent recursion (decision tree). The contention sweeps
// measure the same three, so their space constants are comparable.
func auditPrograms(opt Options) []struct {
	name string
	prog func(*pthread.T)
} {
	paper := opt.paper()
	return []struct {
		name string
		prog func(*pthread.T)
	}{
		{"matmul", matmul.Fine(matmulCfg(paper))},
		{"barneshut", barneshut.Fine(barneshutCfg(paper))},
		{"dtree", dtree.Fine(dtreeCfg(paper))},
	}
}

var auditPolicies = []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF}

// spaceSampleEvery coalesces space samples to one per virtual 100us,
// keeping curves compact without losing interval peaks.
const spaceSampleEvery = vtime.Duration(100 * vtime.CyclesPerMicrosecond)

// auditRun executes prog under cfg with tracing on and analyzes the
// trace. The live run's memsim high-water marks are passed through as
// the measured peak, so the audit compares the analyzer's replayed S₁
// against the machine's own accounting. The report's quota is the one
// the run applied.
func auditRun(cfg pthread.Config, prog func(*pthread.T)) (*analyze.Report, error) {
	rec := trace.NewRecorder(1 << 21)
	cfg.Tracer = rec
	quota, err := cfg.Policy.Quota(cfg.MemQuota, cfg.DisableDummies)
	if err != nil {
		return nil, err
	}
	st := run(cfg, prog)
	return analyze.Analyze(rec, analyze.Options{
		Policy:       string(cfg.Policy),
		Procs:        cfg.Procs,
		Quota:        quota.K,
		DefaultStack: cfg.DefaultStack,
		PeakHeap:     st.HeapHWM,
		PeakStack:    st.StackHWM,
		Peak:         st.TotalHWM,
		SampleEvery:  spaceSampleEvery,
	})
}

// fitRun is auditRun with c fitted to this run alone, as the contention
// sweeps audit single configurations.
func fitRun(cfg pthread.Config, prog func(*pthread.T)) (*analyze.Report, error) {
	rep, err := auditRun(cfg, prog)
	if err != nil {
		return nil, err
	}
	rep.ApplyFit(rep.FitC())
	return rep, nil
}

// fitCells formats a fitted report's audit columns: peak(MB),
// c(B/proc-us) and ok.
func fitCells(rep *analyze.Report) []any {
	return []any{fmt.Sprintf("%.2f", mb(rep.Peak)), fmt.Sprintf("%.2f", rep.C), boundOK(rep)}
}

func boundOK(rep *analyze.Report) string {
	if rep.BoundOK {
		return "yes"
	}
	return "NO"
}

// auditReports runs the full bench x policy matrix and applies the
// per-policy fit: c is the maximum per-run fit across that policy's
// benchmarks, and every run's bound is re-checked against it.
func auditReports(opt Options) (map[string][]*analyze.Report, []string, error) {
	procs := auditProcs(opt)
	progs := auditPrograms(opt)
	byPolicy := make(map[string][]*analyze.Report)
	var names []string
	for _, pol := range auditPolicies {
		for _, bench := range progs {
			rep, err := auditRun(pthread.Config{
				Procs:        procs,
				Policy:       pol,
				DefaultStack: pthread.SmallStackSize,
			}, bench.prog)
			if err != nil {
				return nil, nil, fmt.Errorf("bound-audit: %s under %s: %w", bench.name, pol, err)
			}
			byPolicy[string(pol)] = append(byPolicy[string(pol)], rep)
		}
	}
	for _, bench := range progs {
		names = append(names, bench.name)
	}
	for _, reps := range byPolicy {
		var c float64
		for _, r := range reps {
			if f := r.FitC(); f > c {
				c = f
			}
		}
		for _, r := range reps {
			r.ApplyFit(c)
		}
	}
	return byPolicy, names, nil
}

func runBoundAudit(w io.Writer, opt Options) error {
	byPolicy, names, err := auditReports(opt)
	if err != nil {
		return err
	}
	procs := auditProcs(opt)
	fmt.Fprintf(w, "space-bound audit at p=%d: peak <= S1 + c*p*D, c fitted per policy\n\n", procs)
	tb := newTable(w)
	tb.row("bench", "policy", "W(us)", "D(us)", "W/D", "S1(MB)", "peak(MB)", "c(B/proc-us)", "bound(MB)", "ok")
	for _, pol := range auditPolicies {
		for i, rep := range byPolicy[string(pol)] {
			tb.row(names[i], rep.Policy,
				fmt.Sprintf("%.0f", rep.Work.Microseconds()),
				fmt.Sprintf("%.0f", rep.Depth.Microseconds()),
				fmt.Sprintf("%.1f", rep.Parallelism),
				fmt.Sprintf("%.2f", mb(rep.SerialSpace)),
				fmt.Sprintf("%.2f", mb(rep.Peak)),
				fmt.Sprintf("%.2f", rep.C),
				fmt.Sprintf("%.2f", mb(rep.Bound)),
				boundOK(rep))
		}
	}
	tb.flush()
	fmt.Fprintln(w)
	// The critical path of the ADF runs shows where the makespan goes
	// once the space discipline is active.
	for i, rep := range byPolicy[string(pthread.PolicyADF)] {
		p := rep.Path
		fmt.Fprintf(w, "%s under ADF, critical path: compute %v, ready %v, quota %v, dummy %v, lock %v, blocked %v (%d hops)\n",
			names[i], p.Compute, p.Ready, p.Quota, p.Dummy, p.Lock, p.Blocked, p.Hops)
	}
	return nil
}
