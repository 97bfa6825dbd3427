// Package pthread is a Pthreads-style lightweight-threads library with
// pluggable, space-efficient scheduling, running on a deterministic
// simulated multiprocessor or natively on real goroutines.
//
// It reproduces the system studied in "Pthreads for Dynamic and
// Irregular Parallelism" (Narlikar & Blelloch, SC 1998): programs create
// one lightweight thread per parallel task — thousands of them — and the
// library schedules the threads onto virtual processors. The scheduling
// policy is selectable per run:
//
//   - PolicyFIFO — the original Solaris queue (breadth-first unfolding);
//   - PolicyLIFO — the paper's LIFO modification;
//   - PolicyADF  — the paper's space-efficient scheduler with memory
//     quotas and dummy-thread throttling (S_1 + O(p·D) space);
//   - PolicyADFShard — ADF over per-processor ready shards with
//     bounded-deviation work stealing;
//   - PolicyWS   — a Cilk-style work-stealing baseline (p·S_1 space;
//     sim only);
//   - PolicyDFD  — a simplified DFDeques scheduler, the paper's
//     future-work direction combining space efficiency with locality
//     (sim only).
//
// A minimal program:
//
//	cfg := pthread.Config{Procs: 8, Policy: pthread.PolicyADF}
//	stats, err := pthread.Run(cfg, func(t *pthread.T) {
//		h := t.Create(func(t *pthread.T) { t.Charge(1000) })
//		t.MustJoin(h)
//	})
//
// Computation is charged in virtual cycles with Charge; memory is
// tracked through Malloc/Free/Touch. Run returns deterministic Stats —
// makespan, critical path, memory high-water marks, and per-processor
// time breakdowns — for a fixed Config.
//
// The execution substrate is selectable through Config.Backend: the
// default BackendSim runs on the deterministic virtual-time machine,
// while BackendNative runs the same program on coroutines multiplexed
// over worker goroutines, scheduled in the same FIFO, LIFO or ADF order
// from real per-worker locked deques and timed by the wall clock (results
// are then machine- and load-dependent, not deterministic).
//
// On both backends a thread is an iter.Pull coroutine, and a thread
// switch is a coroutine switch. A thread body that calls
// runtime.LockOSThread must call runtime.UnlockOSThread before any call
// that can fork, block or yield: Create, Join, Exit, every blocking
// synchronization call, Yield, Sleep and Malloc — and, on the simulator,
// Charge, Free and Touch too, which can end the thread's quantum — and
// before the body returns. Switching a coroutine with the OS thread locked is a fatal runtime
// error ("coro: OS thread locking must match"), not a panic that can
// be recovered.
package pthread

import (
	"fmt"
	"runtime"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/native"
	"spthreads/internal/sched"
	"spthreads/internal/trace"
)

// Policy names a scheduling policy.
type Policy = sched.Kind

// Available scheduling policies.
const (
	PolicyFIFO = sched.FIFO
	PolicyLIFO = sched.LIFO
	// PolicyADF is the paper's space-efficient scheduler, the default.
	// On the sim it is one ordered ready list under the global scheduler
	// lock. On the native backend it runs on the same per-worker shards
	// as PolicyADFShard at its default window (Procs).
	PolicyADF = sched.ADF
	// PolicyADFShard is the ADF scheduler over per-worker ready shards
	// with bounded-deviation work stealing: same placeholder discipline
	// and dispatch order as PolicyADF at p=1, but the ready store (and on
	// the sim its scheduler lock) is split per worker, with steals
	// restricted to threads within Config.StealWindow of the global
	// leftmost-ready position. Natively it differs from PolicyADF only in
	// accepting a StealWindow.
	PolicyADFShard = sched.ADFShard
	// PolicyWS is a Cilk-style work-stealing baseline with one deque per
	// processor. It is sim-only: the native backend rejects it, since its
	// one ready store orders only FIFO, LIFO and the ADF family.
	PolicyWS = sched.WS
	// PolicyDFD is a simplified DFDeques scheduler: the paper's
	// future-work direction combining space efficiency with locality
	// (threads close in the computation graph run on the same
	// processor). It is sim-only, like PolicyWS: its locality gain is
	// charged by the sim's TLB model, which the native backend lacks.
	PolicyDFD = sched.DFD
)

// Backend names an execution backend.
type Backend string

// Available execution backends.
const (
	// BackendSim is the deterministic virtual-time simulated machine
	// (the default; an empty Backend selects it).
	BackendSim Backend = "sim"
	// BackendNative runs lightweight threads as real goroutines on
	// worker goroutines, with wall-clock timing. Runs are not
	// deterministic; Tracer records wall-ns timestamps via per-worker
	// event rings, for pttrace.
	BackendNative Backend = "native"
)

// Backends lists the selectable execution backends, for command-line
// validation and enumeration.
func Backends() []Backend { return []Backend{BackendSim, BackendNative} }

// Stack size presets: the Solaris library default and the paper's
// reduced one-page default.
const (
	DefaultStackSize = core.DefaultStackSize
	SmallStackSize   = core.SmallStackSize
)

// DefaultMemQuota is the default per-schedule allocation quota K of the
// policies that throttle allocation (adf, adf-shard, dfd).
const DefaultMemQuota = core.DefaultMemQuota

// Attr carries thread-creation attributes (stack size, priority,
// detached state, name), mirroring pthread_attr_t.
type Attr = core.Attr

// Alloc names a simulated heap allocation returned by T.Malloc.
type Alloc = core.Alloc

// Stats summarizes a completed run; see core.Stats for the fields.
type Stats = core.Stats

// Config describes one run. Run rejects a negative size or count.
type Config struct {
	// Procs is the number of virtual processors (default 1; under
	// BackendNative the number of worker goroutines, default
	// GOMAXPROCS). Negative values are rejected.
	Procs int
	// Policy selects the scheduler (default PolicyADF).
	Policy Policy
	// Backend selects the execution substrate (default BackendSim).
	Backend Backend
	// MemQuota overrides the allocation quota K in bytes (default
	// DefaultMemQuota). It requires a policy that throttles allocation:
	// PolicyADF, PolicyADFShard or PolicyDFD.
	MemQuota int64
	// DisableDummies turns off dummy-thread throttling. It requires a
	// policy that throttles allocation, as MemQuota does.
	DisableDummies bool
	// DefaultStack is the default thread stack size (default 1 MB, the
	// Solaris library value; the paper recommends SmallStackSize).
	DefaultStack int64
	// MaxSteps aborts runaway simulations (sim only).
	MaxSteps int64
	// SchedBatch > 1 enables the paper's two-level Q_in/R/Q_out
	// scheduler batching, with workers volunteering to run the scheduler
	// pass, and is the per-processor Q_out capacity B. 0 or 1 (the
	// default) takes the global scheduler lock on every ready-queue
	// operation, the paper's original scheduler. Batching requires
	// PolicyADF on the sim backend.
	SchedBatch int
	// StealWindow is the sharded scheduler's deviation bound K: a worker
	// out of local work may steal a thread only if at most K ready
	// threads precede it in the serial depth-first order. 0 selects the
	// default (Procs); negative values are rejected; it requires
	// PolicyADFShard on both backends (native PolicyADF runs on the same
	// shards, always at the default window).
	StealWindow int
	// Tracer, when non-nil, records scheduler events for later
	// inspection (Gantt charts, per-thread summaries, pttrace exports
	// and analysis). On the sim backend timestamps are virtual cycles and
	// recording does not affect virtual time; on the native backend
	// workers record into per-worker lock-free rings with wall-clock-ns
	// timestamps, merged into the recorder (unit wall-ns) at run end.
	Tracer *trace.Recorder
	// Metrics, when non-nil, collects scheduler/memory instruments
	// (dispatch latencies, lock waits, quota preemptions, ADF
	// placeholder-list length, ...); the final snapshot is returned in
	// Stats.Metrics. Attach a registry from NewMetrics.
	Metrics *metrics.Registry
}

// Policies lists every selectable scheduling policy name, in a stable
// order, for command-line validation and enumeration.
func Policies() []Policy { return sched.Kinds() }

// newBackend is the single constructor from a Config to an execution
// backend: it validates the configuration, derives the memory quota,
// builds the sim's scheduling policy, and maps the public fields onto
// the selected backend's configuration. Every Run goes through here, so
// there is exactly one place where pthread.Config fields translate to
// runtime settings.
func newBackend(cfg Config) (core.Backend, error) {
	// A negative size or count would pass silently as
	// "off" or "default" further down (MemQuota -1 disables quota
	// preemption and dummy throttling), so every one is an error.
	for _, f := range []struct {
		name  string
		value int64
	}{
		{"Procs", int64(cfg.Procs)},
		{"MemQuota", cfg.MemQuota},
		{"DefaultStack", cfg.DefaultStack},
		{"MaxSteps", cfg.MaxSteps},
		{"SchedBatch", int64(cfg.SchedBatch)},
		{"StealWindow", int64(cfg.StealWindow)},
	} {
		if f.value < 0 {
			return nil, fmt.Errorf("pthread: negative %s (%d)", f.name, f.value)
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyADF
	}
	// The one rule of which policies throttle also rejects an unknown
	// policy, on either backend.
	quota, err := cfg.Policy.Quota(cfg.MemQuota, cfg.DisableDummies)
	if err != nil {
		return nil, err
	}
	// Batching takes ordered runs of leftmost-ready threads from the
	// global ready store, which only the sim's adf has: adf-shard splits
	// the lock instead, and native splits it for every policy.
	if cfg.SchedBatch > 1 && (cfg.Policy != PolicyADF || cfg.Backend == BackendNative) {
		return nil, fmt.Errorf("pthread: SchedBatch %d requires a batch-capable policy, adf on the sim (have %q): batching is sim-only, and mutually exclusive with adf-shard, whose shards split the scheduler lock it amortizes",
			cfg.SchedBatch, cfg.Policy)
	}
	if cfg.Policy != PolicyADFShard && cfg.StealWindow != 0 {
		return nil, fmt.Errorf("pthread: StealWindow requires the sharded scheduler (Policy adf-shard; have policy %q)", cfg.Policy)
	}
	// The processor count is resolved once, here, so the policy's
	// per-processor structures (WS and DFD deques, adf-shard's shards and
	// its default steal window) match the backend's processors.
	procs := cfg.Procs
	if procs == 0 {
		procs = 1
		if cfg.Backend == BackendNative {
			procs = runtime.GOMAXPROCS(0)
		}
	}
	switch cfg.Backend {
	case "", BackendSim:
		pol, err := sched.New(cfg.Policy, sched.Options{
			Procs:       procs,
			StealWindow: cfg.StealWindow,
			Metrics:     cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		return core.New(core.Config{
			Procs:        procs,
			Policy:       pol,
			Quota:        quota,
			DefaultStack: cfg.DefaultStack,
			MaxSteps:     cfg.MaxSteps,
			SchedBatch:   cfg.SchedBatch,
			Tracer:       cfg.Tracer,
			Metrics:      cfg.Metrics,
		})
	case BackendNative:
		if cfg.MaxSteps != 0 {
			return nil, fmt.Errorf("pthread: MaxSteps %d is sim-only: a native run has no dispatch-step bound", cfg.MaxSteps)
		}
		return native.New(native.Config{
			Procs:        procs,
			Policy:       string(cfg.Policy),
			StealWindow:  cfg.StealWindow,
			Quota:        quota,
			DefaultStack: cfg.DefaultStack,
			Metrics:      cfg.Metrics,
			Tracer:       cfg.Tracer,
		})
	default:
		return nil, fmt.Errorf("pthread: unknown Backend %q", string(cfg.Backend))
	}
}

// Run executes main as the root thread of a fresh run of the selected
// backend and returns the run's statistics. It is an error for the
// computation to deadlock, panic, exceed the step limit, or for the
// Config to be invalid.
func Run(cfg Config, main func(*T)) (Stats, error) {
	b, err := newBackend(cfg)
	if err != nil {
		return Stats{}, err
	}
	return b.Execute(func(th core.Handle) {
		h := &Thread{id: th.ID()}
		h.t = T{th: th, b: b, h: h}
		main(&h.t)
	})
}
