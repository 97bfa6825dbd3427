package harness

import (
	"fmt"
	"io"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// contention-sharded: the tentpole experiment for the sharded scheduler.
// Where `contention` shows batching amortizing the single global lock,
// this sweep removes the global lock entirely — per-worker DePa-label
// heaps with bounded-deviation stealing — and pushes the processor count
// an order of magnitude past the batched sweep, p up to 1024. Arms per
// (bench, p) cell:
//
//	global/b64     adf under the batched volunteer scheduler (B=64),
//	               the best global-store configuration from the
//	               contention experiment — the baseline.
//	shard/K=1      tightest steal window: near-serial dispatch order.
//	shard/K=p      the default window (the S1 + c*p*D sweet spot).
//	shard/K=8p     loose window: most steals accepted.
//
// The signals are sched.lock.wait (the sharded store's per-shard
// critical sections must collapse the wait that even batching leaves at
// p>=256) and speedup (which must not regress). A bound audit at p=256
// refits the space constant c under sharding: the global baseline, the
// tight window K=1 (which must recover the global space constant), the
// default window K=p (the space price of free stealing), and the
// unbounded Cilk stealer as the contrast c must stay far below.

func init() {
	register(Experiment{
		ID:    "contention-sharded",
		Title: "Sharded scheduler: per-worker label heaps vs the batched global lock",
		What:  "sim time, speedup, and sched.lock.wait across p in {64..1024}, shard on/off x steal window",
		Run:   runContentionSharded,
	})
}

// contentionShardedProcs extends the contention sweep into the regime
// where even batched global locking stops scaling.
var contentionShardedProcs = []int{64, 128, 256, 512, 1024}

// contentionShardedBaselineBatch is the global baseline's batch size
// (the best-scaling arm of the contention experiment).
const contentionShardedBaselineBatch = 64

// contentionShardedAuditProcs is where the bound audit runs (clamped to
// the sweep).
const contentionShardedAuditProcs = 256

// shardedArm is one scheduler configuration of the sweep: the batched
// global baseline when window is nil, else the sharded store with steal
// window window(p).
type shardedArm struct {
	name   string
	window func(p int) int
}

func contentionShardedArms() []shardedArm {
	return []shardedArm{
		{name: "global/b64"},
		{name: "shard/K=1", window: func(int) int { return 1 }},
		{name: "shard/K=p", window: func(int) int { return 0 }}, // 0 = default K=p
		{name: "shard/K=8p", window: func(p int) int { return 8 * p }},
	}
}

// contentionShardedConfig builds the run config for one (procs, arm)
// cell.
func contentionShardedConfig(procs int, arm shardedArm) pthread.Config {
	cfg := pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		DefaultStack: pthread.SmallStackSize,
	}
	if arm.window != nil {
		cfg.Policy = pthread.PolicyADFShard
		cfg.StealWindow = arm.window(procs)
	} else {
		cfg.SchedBatch = contentionShardedBaselineBatch
	}
	return cfg
}

// contentionShardedAuditP clamps the audit processor count to the sweep.
func contentionShardedAuditP(procs []int) int {
	best := procs[0]
	for _, p := range procs {
		if p <= contentionShardedAuditProcs && p > best {
			best = p
		}
	}
	return best
}

func runContentionSharded(w io.Writer, opt Options) error {
	procs := opt.procs(contentionShardedProcs)
	fmt.Fprintln(w, "sharded scheduler vs batched global lock under ADF dispatch order")
	fmt.Fprintln(w)
	tb := newTable(w)
	tb.row("bench", "p", "sched", "time(us)", "speedup", "lock.wait(us)", "waits", "steals", "rejects")
	progs := auditPrograms(opt)
	for _, bench := range progs {
		serial := serialTime(bench.prog)
		for _, p := range procs {
			for _, arm := range contentionShardedArms() {
				cfg := contentionShardedConfig(p, arm)
				cfg.Metrics = pthread.NewMetrics()
				st := run(cfg, bench.prog)
				sum, count := lockWaitStats(st.Metrics)
				var steals, rejects int64
				if st.Metrics != nil {
					steals = st.Metrics.Counters["sched.steal.count"]
					rejects = st.Metrics.Counters["sched.steal.window_reject"]
				}
				tb.row(bench.name, p, arm.name,
					fmt.Sprintf("%.0f", st.Time.Microseconds()),
					fmt.Sprintf("%.2f", speedup(serial, st)),
					fmt.Sprintf("%.0f", vtime.Duration(sum).Microseconds()),
					count, steals, rejects)
			}
		}
	}
	tb.flush()

	pAudit := contentionShardedAuditP(procs)
	arms := contentionShardedArms()
	audits := []struct {
		name string
		cfg  pthread.Config
	}{
		{arms[0].name, contentionShardedConfig(pAudit, arms[0])},
		{arms[1].name, contentionShardedConfig(pAudit, arms[1])},
		{arms[2].name, contentionShardedConfig(pAudit, arms[2])},
		{"ws", pthread.Config{Procs: pAudit, Policy: pthread.PolicyWS, DefaultStack: pthread.SmallStackSize}},
	}
	fmt.Fprintf(w, "\nbound audit at p=%d: peak <= S1 + c*p*D, c fitted per run\n\n", pAudit)
	tb = newTable(w)
	tb.row("bench", "sched", "peak(MB)", "c(B/proc-us)", "ok")
	for _, bench := range progs {
		for _, a := range audits {
			rep, err := fitRun(a.cfg, bench.prog)
			if err != nil {
				return fmt.Errorf("contention-sharded: %s audit at p=%d (%s): %w", bench.name, pAudit, a.name, err)
			}
			tb.row(append([]any{bench.name, a.name}, fitCells(rep)...)...)
		}
	}
	tb.flush()
	return nil
}
