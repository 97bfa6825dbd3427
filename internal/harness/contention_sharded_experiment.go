package harness

import (
	"fmt"
	"io"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
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
// The gated signals are sim sched.lock.wait (the sharded store's
// per-shard critical sections must collapse the wait that even batching
// leaves at p>=256) and speedup (which must not regress). A bound audit
// at p=256 refits the space constant c under sharding, and a native pair
// at the same p compares real lock-wait totals via LockWaitVsGlobalPct.

func init() {
	register(Experiment{
		ID:    "contention-sharded",
		Title: "Sharded scheduler: per-worker label heaps vs the batched global lock",
		What:  "sim time, speedup, and sched.lock.wait across p in {64..1024}, shard on/off x steal window",
		Run:   runContentionSharded,
		JSON:  jsonContentionSharded,
	})
}

// contentionShardedProcs extends the contention sweep into the regime
// where even batched global locking stops scaling.
var contentionShardedProcs = []int{64, 128, 256, 512, 1024}

// contentionShardedBaselineBatch is the global baseline's batch size
// (the best-scaling arm of the contention experiment).
const contentionShardedBaselineBatch = 64

// contentionShardedAuditProcs is where the bound audit and the native
// lock-wait comparison run (clamped to the sweep).
const contentionShardedAuditProcs = 256

// shardedArm is one scheduler configuration of the sweep.
type shardedArm struct {
	name   string
	shard  bool
	window func(p int) int // meaningful only when shard is set
}

func contentionShardedArms() []shardedArm {
	return []shardedArm{
		{name: "global/b64", shard: false},
		{name: "shard/K=1", shard: true, window: func(int) int { return 1 }},
		{name: "shard/K=p", shard: true, window: func(int) int { return 0 }}, // 0 = default K=p
		{name: "shard/K=8p", shard: true, window: func(p int) int { return 8 * p }},
	}
}

// contentionShardedConfig builds the run config for one (procs, arm)
// cell on the given backend.
func contentionShardedConfig(backend pthread.Backend, procs int, arm shardedArm) pthread.Config {
	cfg := pthread.Config{
		Backend:      backend,
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		DefaultStack: pthread.SmallStackSize,
	}
	if arm.shard {
		cfg.Policy = pthread.PolicyADFShard
		cfg.StealWindow = arm.window(procs)
	} else {
		cfg.SchedMode = pthread.SchedVolunteer
		cfg.SchedBatch = contentionShardedBaselineBatch
	}
	return cfg
}

// auditProcs clamps the audit processor count to the sweep.
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
	for _, bench := range contentionPrograms(opt) {
		serial := serialTime(bench.prog)
		for _, p := range procs {
			for _, arm := range contentionShardedArms() {
				cfg := contentionShardedConfig(pthread.BackendSim, p, arm)
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
	return nil
}

// contentionShardedAudit traces one run under cfg and refits the space
// constant c, so the S1 + c*p*D claim is re-checked with stealing on.
func contentionShardedAudit(procs int, cfg pthread.Config, prog func(*pthread.T)) (*analyze.Report, pthread.Stats, error) {
	rec := trace.NewRecorder(1 << 21)
	cfg.Tracer = rec
	st := run(cfg, prog)
	var quota int64
	switch pthread.Policy(st.Policy) {
	case pthread.PolicyADF, pthread.PolicyADFShard:
		quota = pthread.DefaultMemQuota
	}
	rep, err := analyze.Analyze(rec, analyze.Options{
		Policy:       string(st.Policy),
		Procs:        procs,
		Quota:        quota,
		DefaultStack: pthread.SmallStackSize,
		PeakHeap:     st.HeapHWM,
		PeakStack:    st.StackHWM,
		Peak:         st.TotalHWM,
		SampleEvery:  spaceProfileEvery,
	})
	if err != nil {
		return nil, st, err
	}
	rep.ApplyFit(rep.FitC())
	return rep, st, nil
}

// nativeLockWait runs one arm natively and returns its row plus the
// total scheduler-lock wait (b.mu and shard locks feed the same
// sched.lock.wait histogram, so the totals are comparable across arms).
func contentionShardedNative(procs int, arm shardedArm, bench string, prog func(*pthread.T), repeat int) (BenchRun, int64) {
	cfg := contentionShardedConfig(pthread.BackendNative, procs, arm)
	cfg.Metrics = pthread.NewMetrics()
	st, ms := timedRun(cfg, prog, repeat)
	row := statsRun(pthread.Policy(st.Policy), procs, st)
	row.Bench = bench
	row.Backend = string(pthread.BackendNative)
	row.WallMS = ms
	row.Repeat = repeat
	row.TimeCycles, row.TimeUS = 0, 0 // native virtual time is wall-derived
	if arm.shard {
		row.Shard = true
		row.StealWindow = cfg.StealWindow
	} else {
		row.Batch = contentionShardedBaselineBatch
	}
	sum, _ := lockWaitStats(st.Metrics)
	return row, sum
}

// jsonContentionSharded emits the full sweep, the p=256 bound audits,
// and the native lock-wait pair.
func jsonContentionSharded(opt Options) (*BenchResult, error) {
	procs := opt.procs(contentionShardedProcs)
	repeat := opt.repeatCount()
	res := &BenchResult{Experiment: "contention-sharded", Scale: scaleName(opt),
		Title: "Sharded scheduler: per-worker label heaps vs the batched global lock"}
	arms := contentionShardedArms()
	for _, bench := range contentionPrograms(opt) {
		serial := serialTime(bench.prog)
		for _, p := range procs {
			for _, arm := range arms {
				cfg := contentionShardedConfig(pthread.BackendSim, p, arm)
				cfg.Metrics = pthread.NewMetrics()
				st := run(cfg, bench.prog)
				row := statsRun(pthread.Policy(st.Policy), p, st)
				row.Bench = bench.name
				row.Speedup = speedup(serial, st)
				if arm.shard {
					row.Shard = true
					row.StealWindow = cfg.StealWindow
				} else {
					row.Batch = contentionShardedBaselineBatch
				}
				res.Runs = append(res.Runs, row)
			}
		}

		// Bound audit at (up to) p=256: the global baseline, the tight
		// window K=1 (which must recover the global space constant), the
		// default window K=p (the space price of free stealing), and the
		// unbounded Cilk stealer as the contrast c must stay far below.
		pAudit := contentionShardedAuditP(procs)
		auditCfgs := []struct {
			arm shardedArm // zero arm = not from the sweep (ws contrast)
			cfg pthread.Config
		}{
			{arm: arms[0], cfg: contentionShardedConfig(pthread.BackendSim, pAudit, arms[0])},
			{arm: arms[1], cfg: contentionShardedConfig(pthread.BackendSim, pAudit, arms[1])},
			{arm: arms[2], cfg: contentionShardedConfig(pthread.BackendSim, pAudit, arms[2])},
			{cfg: pthread.Config{Backend: pthread.BackendSim, Procs: pAudit,
				Policy: pthread.PolicyWS, DefaultStack: pthread.SmallStackSize}},
		}
		for _, a := range auditCfgs {
			rep, st, err := contentionShardedAudit(pAudit, a.cfg, bench.prog)
			if err != nil {
				return nil, fmt.Errorf("contention-sharded: %s audit at p=%d (%s): %w",
					bench.name, pAudit, string(a.cfg.Policy), err)
			}
			row := BenchRun{
				Bench:    bench.name,
				Policy:   string(st.Policy),
				Procs:    pAudit,
				HeapHWM:  st.HeapHWM,
				StackHWM: st.StackHWM,
				TotalHWM: st.TotalHWM,
				Analysis: rep,
			}
			switch {
			case a.arm.shard:
				row.Shard = true
				row.StealWindow = a.arm.window(pAudit)
			case a.arm.name != "":
				row.Batch = contentionShardedBaselineBatch
			}
			res.Runs = append(res.Runs, row)
		}

		// Native pair at the same p: the real lock-wait totals, sharded
		// as a percentage of global.
		globalRow, globalWait := contentionShardedNative(pAudit, arms[0], bench.name, bench.prog, repeat)
		shardRow, shardWait := contentionShardedNative(pAudit, arms[2], bench.name, bench.prog, repeat)
		if globalWait > 0 {
			shardRow.LockWaitVsGlobalPct = 100 * float64(shardWait) / float64(globalWait)
		}
		res.Runs = append(res.Runs, globalRow, shardRow)
	}
	return res, nil
}
