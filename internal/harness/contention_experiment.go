package harness

import (
	"fmt"
	"io"

	"spthreads/internal/metrics"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// contention: sweep processor count x scheduler batch size under ADF and
// measure what the global scheduler lock costs. batch=1 is the direct
// per-operation scheduler (the seed behavior and the paper's strawman);
// batch>1 enables the two-level Q_in/R/Q_out scheme where a volunteering
// worker moves whole batches under one lock critical section, which is
// how the paper's implementation amortizes the lock and scales past
// p=8. The table shows total scheduler-lock wait collapsing and speedup
// improving as B grows; a bound audit at the largest p for B=1 and B=64
// checks the space side of the tradeoff in the same output.

func init() {
	register(Experiment{
		ID:    "contention",
		Title: "Scheduler-lock contention: direct vs batched Q_in/Q_out scheduling",
		What:  "simulated time, speedup, and sched.lock.wait across p x batch under ADF",
		Run:   runContention,
	})
}

// contentionProcs is the sweep the tentpole targets: the regime past
// p=8 where per-operation locking stops scaling.
var contentionProcs = []int{8, 16, 32, 64}

// contentionBatches sweeps the Q_out capacity B; 1 is the direct path.
var contentionBatches = []int{1, 4, 16, 64}

// contentionConfig builds the run config for one (procs, batch) cell.
func contentionConfig(procs, batch int) pthread.Config {
	cfg := pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		DefaultStack: pthread.SmallStackSize,
	}
	if batch > 1 {
		cfg.SchedBatch = batch
	}
	return cfg
}

// lockWaitStats extracts the scheduler-lock wait histogram from a
// snapshot (zero when uncontended or unbound).
func lockWaitStats(snap *metrics.Snapshot) (sum, count int64) {
	if snap == nil {
		return 0, 0
	}
	if h, ok := snap.Histograms["sched.lock.wait"]; ok {
		return h.Sum, h.Count
	}
	return 0, 0
}

func runContention(w io.Writer, opt Options) error {
	procs := opt.procs(contentionProcs)
	fmt.Fprintln(w, "scheduler-lock contention under ADF: direct (batch=1) vs batched volunteer scheduling")
	fmt.Fprintln(w)
	tb := newTable(w)
	tb.row("bench", "p", "batch", "time(us)", "speedup", "lock.wait(us)", "waits", "passes")
	progs := auditPrograms(opt)
	for _, bench := range progs {
		serial := serialTime(bench.prog)
		for _, p := range procs {
			for _, b := range contentionBatches {
				cfg := contentionConfig(p, b)
				cfg.Metrics = pthread.NewMetrics()
				st := run(cfg, bench.prog)
				sum, count := lockWaitStats(st.Metrics)
				var passes int64
				if st.Metrics != nil {
					passes = st.Metrics.Counters["sched.batch.passes"]
				}
				tb.row(bench.name, p, b,
					fmt.Sprintf("%.0f", st.Time.Microseconds()),
					fmt.Sprintf("%.2f", speedup(serial, st)),
					fmt.Sprintf("%.0f", vtime.Duration(sum).Microseconds()),
					count, passes)
			}
		}
	}
	tb.flush()

	// Space-bound check at the largest p for the sweep's extremes.
	pMax := procs[len(procs)-1]
	fmt.Fprintf(w, "\nbound audit at p=%d: peak <= S1 + c*p*D, c fitted per run\n\n", pMax)
	tb = newTable(w)
	tb.row("bench", "batch", "peak(MB)", "c(B/proc-us)", "ok")
	for _, bench := range progs {
		for _, b := range []int{contentionBatches[0], contentionBatches[len(contentionBatches)-1]} {
			rep, err := fitRun(contentionConfig(pMax, b), bench.prog)
			if err != nil {
				return fmt.Errorf("contention: %s audit at p=%d b=%d: %w", bench.name, pMax, b, err)
			}
			tb.row(append([]any{bench.name, b}, fitCells(rep)...)...)
		}
	}
	tb.flush()
	return nil
}
