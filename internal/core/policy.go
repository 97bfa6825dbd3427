// Package core implements the user-level threads runtime on top of a
// deterministic, discrete-event simulated shared-memory multiprocessor.
//
// Lightweight threads are goroutines, and exactly one of them runs at a
// time: a thread that stops runs the scheduler on its own goroutine,
// picks its successor and hands over to it, so the Go scheduler never
// decides interleaving. Virtual processors carry virtual clocks; the
// scheduler always advances the processor with the smallest clock (ties
// broken by processor id), which makes every run deterministic for a
// fixed configuration.
//
// The scheduling policy — the paper's subject — is pluggable through the
// Policy interface; implementations live in internal/sched.
package core

// Policy is a ready-thread scheduling policy. All methods are invoked
// with the machine serialized (on the single goroutine that holds it: the
// running thread's, or Execute's before the root starts), so
// implementations need no locking;
// lock *costs* for global-queue policies are modeled by the machine.
type Policy interface {
	// Name identifies the policy in reports ("fifo", "lifo", "adf", "ws").
	Name() string

	// OnCreate places a newly created child thread. parent is nil for
	// the root thread. If it returns true, the creating processor
	// preempts the parent (the machine re-enters it via OnReady) and
	// runs the child immediately, as the paper's space-efficient
	// scheduler requires; if false, the child was placed in the ready
	// structure and the parent continues to run.
	OnCreate(parent, child *Thread) (runChild bool)

	// OnReady makes a blocked or preempted thread runnable again. pid is
	// the processor performing the transition (used by per-processor
	// structures); -1 if unknown.
	OnReady(t *Thread, pid int)

	// OnBlock records that a running thread blocked (entry-keeping
	// policies mark its placeholder not-ready; others do nothing).
	OnBlock(t *Thread)

	// OnExit removes an exiting thread from any bookkeeping.
	OnExit(t *Thread)

	// Next selects the next thread for processor pid to run, removing it
	// from the ready structure, or returns nil if none is runnable.
	// Policies must be complete: if any thread is runnable anywhere,
	// Next must find one.
	Next(pid int) *Thread

	// Global reports whether the policy keeps a single shared structure
	// protected by one scheduler lock (the machine then serializes queue
	// operations in virtual time to model contention).
	Global() bool

	// Quota returns the memory quota in bytes granted to a thread each
	// time it is scheduled; 0 disables quota enforcement.
	Quota() int64

	// AllocDummies returns the number of no-op dummy threads the runtime
	// must fork before an allocation of m bytes (the ADF throttling
	// mechanism); 0 for policies without allocation throttling.
	AllocDummies(m int64) int
}

// ShardedPolicy is the optional extension implemented by policies that
// keep one ready structure per processor instead of a single global one.
// The machine then charges per-shard lock critical sections (narrow
// contention windows over SchedShardLockOp) instead of the global
// SchedLockOp, and charges steal probes after each cross-shard dispatch.
// A ShardedPolicy must return Global() == false. Its steals follow
// StealVictim, the rule the native backend's shard store applies too.
type ShardedPolicy interface {
	Policy

	// NumShards returns the number of per-processor shards (>= 1).
	NumShards() int

	// TakeSteal reports how the most recent Next call obtained its
	// thread, and resets the record. victim is the shard index the
	// thread was stolen from, or -1 if it came from the caller's own
	// shard (or no Next happened); probes is the number of victim
	// shards examined against the steal window before dispatch.
	TakeSteal() (victim, probes int)

	// StealWindow returns the deviation bound K: a steal is accepted
	// only if at most K ready threads precede the stolen thread in the
	// serial depth-first order.
	StealWindow() int
}

// BatchNexter is the optional extension implemented by global-queue
// policies whose ready structure can hand the machine a whole batch of
// threads, in dispatch order, in one critical section — the Q_in/R/Q_out
// scheduler-pass refill of the paper's two-level scheme. ADF (and its
// linked-list reference oracle) implement it; FIFO and LIFO deliberately
// do not, preserving the paper's original per-operation lock behavior.
// Config.SchedBatch > 1 silently keeps the direct path for policies
// without this interface.
type BatchNexter interface {
	// NextBatch removes and returns up to n ready threads in exactly the
	// order n successive Next(pid) calls would have dispatched them
	// (leftmost-ready first for ADF). It returns fewer than n only when
	// the ready structure is exhausted. The result is valid until the
	// next call.
	NextBatch(pid, n int) []*Thread
}
