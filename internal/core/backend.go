package core

import "spthreads/internal/vtime"

// The execution-backend contract behind the pthread API. A Backend
// supplies the thread-facing operations pthread.T needs — create/join,
// virtual-time or wall-clock charging, quota-disciplined allocation —
// and the block / wake primitives on which the synchronization objects
// of package exec are written once for both backends: *Machine (the
// deterministic simulated multiprocessor) and *native.Backend (real
// goroutines under the same internal/sched policies, timed by the wall
// clock).

// Handle is a backend's per-thread handle. The pthread layer stores it
// in T and passes it back on every operation; each backend hands out
// its own thread record and recovers it by type assertion.
type Handle interface {
	// ID returns the unique, creation-ordered thread identifier.
	ID() int64
	// Name returns the thread's label (Attr.Name or a synthesized one).
	Name() string
	// TLSGet and TLSSet access the thread's local storage slot for key.
	// Only the thread itself may call them.
	TLSGet(key any) any
	TLSSet(key, val any)
}

// Backend executes lightweight-thread programs. All Handle-taking
// methods must be called from the goroutine currently running that
// thread (thread context).
type Backend interface {
	// Execute runs main as the root thread and returns the run's
	// statistics. A Backend is single-shot: Execute may be called once.
	Execute(main func(Handle)) (Stats, error)

	// Fork creates a new thread running body. body.Bind sees the child
	// first, on t's goroutine, before the child can run; policies with
	// the paper's fork semantics then preempt the caller and run the
	// child immediately.
	Fork(t Handle, attr Attr, body Body) Handle
	// Join blocks until target exits (POSIX single-joiner semantics).
	Join(t Handle, target Handle) error
	// Exit terminates the calling thread from any stack depth.
	Exit(t Handle)
	// Yield returns the calling thread to the ready structure.
	Yield(t Handle)
	// Charge accounts cycles of user computation to the calling thread.
	Charge(t Handle, cycles int64)
	// Malloc allocates n bytes under the scheduler's quota discipline.
	Malloc(t Handle, n int64) Alloc
	// Free releases an allocation.
	Free(t Handle, a Alloc)
	// Touch charges for accessing bytes [off, off+n) of a.
	Touch(t Handle, a Alloc, off, n int64)
	// Prefault marks a's pages resident without charging time.
	Prefault(t Handle, a Alloc)
	// Sleep parks the calling thread for at least d.
	Sleep(t Handle, d vtime.Duration)
	// Now returns the current time on the calling thread's processor.
	Now(t Handle) vtime.Time

	// Primitives the synchronization objects of package exec are
	// written against, in the blocking order set out at the top of its
	// sync.go.

	// SyncOp panics unless t is running (op names the caller), then
	// charges t the cost c of a synchronization step. Native charges
	// nothing.
	SyncOp(t Handle, op string, c SyncCost)
	// Pause gives the processor up if t has run a full quantum (sim).
	Pause(t Handle)
	// BlockPrep marks t blocked before it registers as a waiter, so a
	// waker's ready can never precede it.
	BlockPrep(t Handle)
	// Park gives t's processor up until a Wake readies t. A Wake that
	// lands between BlockPrep and Park is not lost.
	Park(t Handle)
	// Wake readies w, blocked by BlockPrep, from by's processor.
	Wake(by, w Handle)
	// WakeAfter arms a timed wake of t, which is about to Park: after
	// d, if claim reports true, t is readied. disarm, when non-nil, must
	// be called by whoever wakes t in claim's stead.
	WakeAfter(t Handle, d vtime.Duration, claim func() bool) (disarm func())
	// Spin is one back-off step of a spin-lock acquisition that has
	// failed burst+1 times.
	Spin(t Handle, burst int)
	// LockStamp marks the start of a blocking mutex acquisition;
	// LockAcquired traces an acquisition as KindLockAcquire, with the
	// wait since stamp (NoWait: none). Cycles on the sim, wall ns on
	// native.
	LockStamp(t Handle) int64
	LockAcquired(t Handle, stamp int64)
	// JoinSpans joins the critical paths of a barrier's releaser t and
	// the parties ws it releases: each leaves with the longest.
	JoinSpans(t Handle, ws []Handle)
}

// Body is what a forked thread runs. Bind receives the new thread on
// the forking thread's goroutine before the new thread can run, so a
// caller can publish the child's identity to state the child itself
// reads; Run is then the thread's body, on its own goroutine.
type Body interface {
	Bind(child Handle)
	Run(self Handle)
}

// Func is a Body that needs no binding.
type Func func(Handle)

func (f Func) Bind(Handle)  {}
func (f Func) Run(t Handle) { f(t) }

// NoWait is LockAcquired's stamp for an acquisition that did not block.
const NoWait int64 = -1
