package pthread

import (
	"fmt"
	"sync/atomic"

	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// T is the per-thread handle passed to every thread function, through
// which the thread talks to the runtime (like pthread_self's implicit
// context). A T is only valid on its own thread.
type T struct {
	th core.Handle
	b  core.Backend
	h  *Thread // the handle Self returns; T lives inside it
}

// Thread is an opaque handle to a created thread, usable for Join. It
// is the one object pthread allocates per thread: the thread's own T
// lives inside it, and it keeps the thread's identity and join state
// itself, so a handle stays answerable after the backend has recycled
// the thread's record.
type Thread struct {
	t        T
	fn       func(*T)
	id       int64
	detached bool
	joined   atomic.Bool
}

// body is a Thread in its core.Body role, kept off the public method
// set.
type body Thread

// Bind publishes the child's identity before it can run.
func (b *body) Bind(child core.Handle) {
	b.t.th = child
	b.id = child.ID()
}

func (b *body) Run(core.Handle) { b.fn(&b.t) }

// ID returns the thread's unique, creation-ordered identifier.
func (h *Thread) ID() int64 { return h.id }

// Self returns the calling thread's handle: the same object its
// creator's Create returned.
func (t *T) Self() *Thread { return t.h }

// ID returns the calling thread's identifier.
func (t *T) ID() int64 { return t.h.id }

// Create forks a new thread with default attributes running fn.
func (t *T) Create(fn func(*T)) *Thread {
	return t.CreateAttr(Attr{}, fn)
}

// CreateAttr forks a new thread with the given attributes running fn.
// Under the ADF policy the caller is preempted and the processor runs
// the child immediately (the paper's fork semantics); under the FIFO and
// LIFO policies the child is enqueued and the caller continues.
func (t *T) CreateAttr(attr Attr, fn func(*T)) *Thread {
	h := &Thread{fn: fn, detached: attr.Detached}
	h.t = T{b: t.b, h: h}
	t.b.Fork(t.th, attr, (*body)(h))
	return h
}

// Join blocks until h exits. Each thread may be joined at most once and
// detached threads cannot be joined. The handle answers misuse itself,
// without reaching the backend.
func (t *T) Join(h *Thread) error {
	switch {
	case h == nil:
		return fmt.Errorf("pthread: join with nil thread")
	case h == t.h:
		return fmt.Errorf("pthread: thread %d cannot join itself", h.id)
	case h.detached:
		return fmt.Errorf("pthread: thread %d is detached", h.id)
	case !h.joined.CompareAndSwap(false, true):
		return fmt.Errorf("pthread: thread %d already joined", h.id)
	}
	return t.b.Join(t.th, h.t.th)
}

// MustJoin is Join, panicking on misuse (the panic aborts the run and is
// reported as the run error).
func (t *T) MustJoin(h *Thread) {
	if err := t.Join(h); err != nil {
		panic(err)
	}
}

// JoinAll joins every handle in order.
func (t *T) JoinAll(hs ...*Thread) {
	for _, h := range hs {
		t.MustJoin(h)
	}
}

// Par forks one thread per function and joins them all — the common
// fork/join idiom of the paper's benchmarks. Functions may themselves
// call Par recursively.
func (t *T) Par(fns ...func(*T)) {
	hs := make([]*Thread, len(fns))
	for i, fn := range fns {
		hs[i] = t.Create(fn)
	}
	t.JoinAll(hs...)
}

// ParAttr is Par with explicit creation attributes.
func (t *T) ParAttr(attr Attr, fns ...func(*T)) {
	hs := make([]*Thread, len(fns))
	for i, fn := range fns {
		hs[i] = t.CreateAttr(attr, fn)
	}
	t.JoinAll(hs...)
}

// Exit terminates the calling thread immediately, from any stack depth
// (pthread_exit).
func (t *T) Exit() { t.b.Exit(t.th) }

// Yield returns the calling thread to the ready queue (sched_yield).
func (t *T) Yield() { t.b.Yield(t.th) }

// Charge accounts cycles of computation to the calling thread's virtual
// processor.
func (t *T) Charge(cycles int64) { t.b.Charge(t.th, cycles) }

// ChargeMicros accounts computation expressed in virtual microseconds.
func (t *T) ChargeMicros(us float64) {
	t.b.Charge(t.th, int64(vtime.Micro(us)))
}

// Malloc allocates n bytes of simulated heap, applying the scheduler's
// memory-quota discipline (under ADF, a large allocation forks dummy
// threads and quota exhaustion preempts the caller).
func (t *T) Malloc(n int64) Alloc { return t.b.Malloc(t.th, n) }

// Free releases a simulated allocation.
func (t *T) Free(a Alloc) { t.b.Free(t.th, a) }

// Touch charges for accessing bytes [off, off+n) of a through the
// current processor's TLB and page model.
func (t *T) Touch(a Alloc, off, n int64) { t.b.Touch(t.th, a, off, n) }

// TouchAll charges for accessing all of a.
func (t *T) TouchAll(a Alloc) { t.b.Touch(t.th, a, 0, a.Size) }

// Prefault marks a's pages resident without charging virtual time —
// for input data prepared during untimed preprocessing.
func (t *T) Prefault(a Alloc) { t.b.Prefault(t.th, a) }

// Now returns the current virtual time on the calling thread's
// processor.
func (t *T) Now() vtime.Time { return t.b.Now(t.th) }

// Sleep parks the calling thread for at least d of virtual time (the
// nanosleep equivalent); SleepMicros is the convenience form.
func (t *T) Sleep(d vtime.Duration) { t.b.Sleep(t.th, d) }

// SleepMicros sleeps for the given number of virtual microseconds.
func (t *T) SleepMicros(us float64) { t.b.Sleep(t.th, vtime.Micro(us)) }

// Key identifies a slot of thread-local storage (pthread_key_create).
type Key struct{ _ byte }

// NewKey creates a TLS key.
func NewKey() *Key { return new(Key) }

// SetSpecific binds v to key k in the calling thread.
func (t *T) SetSpecific(k *Key, v any) { t.th.TLSSet(k, v) }

// Specific returns the calling thread's value for key k (nil if unset).
func (t *T) Specific(k *Key) any { return t.th.TLSGet(k) }
