package pthread

import (
	"spthreads/internal/exec"
	"spthreads/internal/vtime"
)

// The public synchronization types wrap the backend-neutral objects of
// internal/exec, which block and wake through the calling thread's
// backend. Their zero values are usable (POSIX static initializers),
// except that Semaphore and Barrier take their counts from NewSemaphore
// and NewBarrier.

// Mutex is a blocking lock with FIFO handoff (pthread_mutex_t). The zero
// value is an unlocked mutex.
type Mutex struct {
	m exec.Mutex
}

// Lock acquires the mutex, blocking the calling thread while it is held.
// Blocked threads keep their scheduler placeholder, so under ADF they
// resume at their serial position — the full-functionality property the
// paper highlights over fork/join-only space-efficient systems.
func (m *Mutex) Lock(t *T) { m.m.Lock(t.b, t.th) }

// TryLock acquires the mutex if free and reports whether it did.
func (m *Mutex) TryLock(t *T) bool { return m.m.TryLock(t.b, t.th) }

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock(t *T) { m.m.Unlock(t.b, t.th) }

// Cond is a condition variable (pthread_cond_t). The zero value is ready
// to use.
type Cond struct {
	c exec.Cond
}

// Wait atomically releases mu and blocks until signalled, reacquiring mu
// before returning. As with POSIX, callers must re-check their predicate
// in a loop.
func (c *Cond) Wait(t *T, mu *Mutex) { c.c.Wait(t.b, t.th, &mu.m) }

// WaitTimeout is Wait with a virtual-time deadline
// (pthread_cond_timedwait): it returns true if the deadline passed
// before a signal arrived. The mutex is held on return either way, and
// callers re-check their predicate as usual.
func (c *Cond) WaitTimeout(t *T, mu *Mutex, d vtime.Duration) (timedOut bool) {
	return c.c.WaitTimeout(t.b, t.th, &mu.m, d)
}

// Signal wakes one waiting thread, if any.
func (c *Cond) Signal(t *T) { c.c.Signal(t.b, t.th) }

// Broadcast wakes all waiting threads.
func (c *Cond) Broadcast(t *T) { c.c.Broadcast(t.b, t.th) }

// Semaphore is a counting semaphore (sem_t).
type Semaphore struct {
	s exec.Semaphore
}

// NewSemaphore returns a semaphore with initial count n.
func NewSemaphore(n int64) *Semaphore {
	s := new(Semaphore)
	s.s.Init(n)
	return s
}

// Wait decrements the semaphore, blocking while it is zero.
func (s *Semaphore) Wait(t *T) { s.s.Wait(t.b, t.th) }

// Post increments the semaphore, waking the longest waiter if any.
func (s *Semaphore) Post(t *T) { s.s.Post(t.b, t.th) }

// Value returns the current count.
func (s *Semaphore) Value() int64 { return s.s.Value() }

// Barrier blocks callers until its full party has arrived
// (pthread_barrier_t).
type Barrier struct {
	b exec.Barrier
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := new(Barrier)
	b.b.Init(n)
	return b
}

// Wait blocks until the n-th thread arrives. The releasing thread gets
// true (PTHREAD_BARRIER_SERIAL_THREAD); the others get false.
func (b *Barrier) Wait(t *T) bool { return b.b.Wait(t.b, t.th) }

// Once runs a function exactly once across threads (pthread_once). The
// zero value is ready to use.
type Once struct {
	o exec.Once
}

// Do invokes fn on the first call for this Once. Calls that arrive
// while fn runs block until it returns.
func (o *Once) Do(t *T, fn func()) { o.o.Do(t.b, t.th, fn) }
