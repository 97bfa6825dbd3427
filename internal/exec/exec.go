// Package exec defines the execution-backend abstraction behind the
// pthread API. A Backend supplies the thread-facing operations that
// pthread.T needs — create/join, virtual-time or wall-clock charging,
// quota-disciplined allocation, and the blocking synchronization
// objects — so the same program runs unchanged on either substrate:
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
// The interfaces mirror the shape of the core.Machine entry points so
// the sim backend is a thin, zero-cost adapter: it must stay
// byte-for-byte identical to calling the machine directly.
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

	// Synchronization-object constructors. Objects are backend-owned and
	// must only be used with threads of the same backend.
	NewMutex() Mutex
	NewCond() Cond
	NewRWMutex() RWMutex
	NewSpinLock() SpinLock
	NewSemaphore(n int64) Semaphore
	NewBarrier(n int) Barrier
	NewOnce() Once
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

// Mutex is a blocking lock with FIFO handoff (pthread_mutex_t).
type Mutex interface {
	Lock(t Thread)
	TryLock(t Thread) bool
	Unlock(t Thread)
}

// Cond is a condition variable (pthread_cond_t).
type Cond interface {
	Wait(t Thread, mu Mutex)
	// WaitTimeout reports whether the deadline passed before a signal.
	WaitTimeout(t Thread, mu Mutex, d vtime.Duration) (timedOut bool)
	Signal(t Thread)
	Broadcast(t Thread)
}

// RWMutex is a writer-preferring readers-writer lock.
type RWMutex interface {
	RLock(t Thread)
	RUnlock(t Thread)
	WLock(t Thread)
	WUnlock(t Thread)
}

// SpinLock is a busy-waiting lock.
type SpinLock interface {
	Acquire(t Thread)
	Release(t Thread)
	// Spins reports busy-wait bursts so far (a contention diagnostic).
	Spins() int64
}

// Semaphore is a counting semaphore (sem_t).
type Semaphore interface {
	Wait(t Thread)
	Post(t Thread)
	Value() int64
}

// Barrier blocks callers until its full party arrives.
type Barrier interface {
	// Wait reports true to the releasing thread
	// (PTHREAD_BARRIER_SERIAL_THREAD).
	Wait(t Thread) bool
}

// Once runs a function exactly once across threads (pthread_once).
type Once interface {
	Do(t Thread, fn func())
}
