// Package exec defines the execution-backend abstraction behind the
// pthread API. A Backend supplies the thread-facing operations that
// pthread.T needs — create/join, virtual-time or wall-clock charging,
// quota-disciplined allocation — and the block / wake primitives on
// which the synchronization objects of sync.go (mutex, condition
// variable, rwlock, spin lock, semaphore, barrier, once) are written
// once for both substrates:
//
//   - sim: the deterministic discrete-event simulated multiprocessor
//     (internal/core). One thread goroutine runs at a time, virtual
//     clocks decide interleaving, and every run is bit-identical for a
//     fixed Config.
//   - native (internal/native): real goroutines as lightweight threads
//     multiplexed onto worker goroutines, scheduled by the same
//     internal/sched policies behind a real scheduler lock, timed by
//     the wall clock.
//
// The sim adapter forwards each method to the core.Machine entry point
// it mirrors, so a run through it stays byte-for-byte identical to one
// driving the machine directly.
package exec

import (
	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// Thread is a backend's per-thread handle. The pthread layer stores it
// in T and passes it back on every operation; backends recover their
// concrete thread representation by type assertion.
type Thread interface {
	// ID returns the unique, creation-ordered thread identifier.
	ID() int64
	// Name returns the thread's label (Attr.Name or a synthesized one).
	Name() string
	// TLSGet and TLSSet access the thread's local storage slot for key.
	// Only the thread itself may call them.
	TLSGet(key any) any
	TLSSet(key, val any)
}

// Backend executes lightweight-thread programs. All Thread-taking
// methods must be called from the goroutine currently running that
// thread (thread context), exactly like the core.Machine entry points.
type Backend interface {
	// Name identifies the backend in reports ("sim", "native").
	Name() string

	// Execute runs main as the root thread and returns the run's
	// statistics. A Backend is single-shot: Execute may be called once.
	Execute(main func(Thread)) (core.Stats, error)

	// Fork creates a new thread running body. body.Bind sees the child
	// first, on t's goroutine, before the child can run; policies with
	// the paper's fork semantics then preempt the caller and run the
	// child immediately.
	Fork(t Thread, attr core.Attr, body Body) Thread
	// Join blocks until target exits (POSIX single-joiner semantics).
	Join(t Thread, target Thread) error
	// Exit terminates the calling thread from any stack depth.
	Exit(t Thread)
	// Yield returns the calling thread to the ready structure.
	Yield(t Thread)
	// Charge accounts cycles of user computation to the calling thread.
	Charge(t Thread, cycles int64)
	// Malloc allocates n bytes under the scheduler's quota discipline.
	Malloc(t Thread, n int64) core.Alloc
	// Free releases an allocation.
	Free(t Thread, a core.Alloc)
	// Touch charges for accessing bytes [off, off+n) of a.
	Touch(t Thread, a core.Alloc, off, n int64)
	// Prefault marks a's pages resident without charging time.
	Prefault(t Thread, a core.Alloc)
	// Sleep parks the calling thread for at least d.
	Sleep(t Thread, d vtime.Duration)
	// Now returns the current time on the calling thread's processor.
	Now(t Thread) vtime.Time

	// Primitives the synchronization objects of sync.go are written
	// against, in the blocking order set out at the top of that file.

	// SyncOp panics unless t is running (op names the caller), then
	// charges t the cost c of a synchronization step. Native charges
	// nothing.
	SyncOp(t Thread, op string, c core.SyncCost)
	// Pause gives the processor up if t has run a full quantum (sim).
	Pause(t Thread)
	// BlockPrep marks t blocked before it registers as a waiter, so a
	// waker's ready can never precede it.
	BlockPrep(t Thread)
	// Park gives t's processor up until a Wake readies t. A Wake that
	// lands between BlockPrep and Park is not lost.
	Park(t Thread)
	// Wake readies w, blocked by BlockPrep, from by's processor.
	Wake(by, w Thread)
	// WakeAfter arms a timed wake of t, which is about to Park: after
	// d, if claim reports true, t is readied. disarm, when non-nil, must
	// be called by whoever wakes t in claim's stead.
	WakeAfter(t Thread, d vtime.Duration, claim func() bool) (disarm func())
	// Spin is one back-off step of a spin-lock acquisition that has
	// failed burst+1 times.
	Spin(t Thread, burst int)
	// LockStamp marks the start of a blocking mutex acquisition;
	// LockAcquired traces an acquisition as KindLockAcquire, with the
	// wait since stamp (NoWait: none). Cycles on the sim, wall ns on
	// native.
	LockStamp(t Thread) int64
	LockAcquired(t Thread, stamp int64)
	// JoinSpans joins the critical paths of a barrier's releaser t and
	// the parties ws it releases: each leaves with the longest.
	JoinSpans(t Thread, ws []Thread)
}

// Body is what a forked thread runs. Bind receives the new thread on
// the forking thread's goroutine before the new thread can run, so a
// caller can publish the child's identity to state the child itself
// reads; Run is then the thread's body, on its own goroutine.
type Body interface {
	Bind(child Thread)
	Run(self Thread)
}

// Func is a Body that needs no binding.
type Func func(Thread)

func (f Func) Bind(Thread)  {}
func (f Func) Run(t Thread) { f(t) }

// NoWait is LockAcquired's stamp for an acquisition that did not block.
const NoWait int64 = -1
