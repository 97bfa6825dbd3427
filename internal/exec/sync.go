// Package exec holds the blocking synchronization objects behind the
// pthread API — mutex, condition variable, rwlock, spin lock,
// semaphore, barrier, once — written once for both execution backends
// against the block / wake primitives of the core.Backend contract:
//
//   - sim: *core.Machine, the deterministic discrete-event simulated
//     multiprocessor. One thread goroutine runs at a time, virtual
//     clocks decide interleaving, and every run is bit-identical for a
//     fixed Config.
//   - native: *native.Backend, real goroutines as lightweight threads
//     multiplexed onto worker goroutines, scheduled by the same
//     internal/sched policies behind a real scheduler lock, timed by
//     the wall clock.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// The blocking synchronization objects, written once for both backends
// against the backend's block / wake primitives. Each is a plain struct
// whose zero value is usable (Semaphore and Barrier take their counts
// from Init), and every method takes the calling thread's backend.
//
// Each object's own host mutex guards its waiter state. A Mutex's word
// and a Cond's waiter count keep paths with no waiter off that mutex:
// 2 atomic RMWs for an uncontended Lock + Unlock, not 4, and none for
// a Signal with no waiter, not 2. On the sim only one thread goroutine
// runs at a time, so the mutex is never contended and charges no
// virtual time. Blocking always has one shape:
//
//	obj.mu.Lock()
//	  (fast path? -> unlock, return)
//	  b.BlockPrep(t)         // native: mark t blocked, leave the running count
//	  register t as a waiter
//	obj.mu.Unlock()
//	b.Park(t)                // pass the processor on, wait for a Wake
//
// The lock order is object mutex -> scheduler lock, and wakers call
// b.Wake after releasing the object mutex, so the two never nest in the
// opposite direction. Registering after BlockPrep guarantees a waker's
// ready can never precede the waiter's block.
//
// On the sim the SyncOp / Pause placement of each method is the charge
// sequence the determinism goldens pin; it is irregular on purpose (a
// Post that hands its count to a waiter does not pause, an Unlock
// does).

// popFront removes and returns the longest waiter.
func popFront[W any](q *[]W) W {
	w := (*q)[0]
	copy(*q, (*q)[1:])
	*q = (*q)[:len(*q)-1]
	return w
}

// Mutex is a blocking lock with FIFO handoff to waiters
// (pthread_mutex_t). Its word holds the holder's ID() << 1 (0: free),
// plus waitBit while waiters, which mu guards, is non-empty. Lock and
// Unlock are one CAS each unless waitBit is set; then Unlock hands the
// word to the first waiter, so no locker overtakes one.
type Mutex struct {
	word    atomic.Int64
	mu      sync.Mutex
	waiters []core.Handle
}

const waitBit = 1

// mutexStep, when set, runs before each access to a mutex word or its
// mu (locking): the model test gates threads one step at a time.
var mutexStep func(t core.Handle, locking bool)

func step(t core.Handle, locking bool) {
	if mutexStep != nil {
		mutexStep(t, locking)
	}
}

func (m *Mutex) cas(t core.Handle, from, to int64) bool {
	step(t, false)
	return m.word.CompareAndSwap(from, to)
}

// Lock acquires m, blocking t while another thread holds it.
func (m *Mutex) Lock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "Lock", core.CostOp)
	// Pause before acquiring, never while holding: a quantum pause
	// inside a critical section would convoy other threads needing m.
	b.Pause(t)
	me := t.ID() << 1
	for !m.cas(t, 0, me) {
		step(t, true)
		m.mu.Lock()
		step(t, false)
		w := m.word.Load()
		if w&^waitBit == me {
			m.mu.Unlock()
			panic(fmt.Sprintf("pthread: %s locking a mutex it already holds", t.Name()))
		}
		// Held: set waitBit and register. Freed meanwhile, or the CAS
		// lost a race: retry.
		if w != 0 && (w&waitBit != 0 || m.cas(t, w, w|waitBit)) {
			stamp := b.LockStamp(t)
			b.BlockPrep(t)
			m.waiters = append(m.waiters, t)
			m.mu.Unlock()
			b.Park(t)
			// Unlock transferred ownership to t before waking it.
			b.LockAcquired(t, stamp)
			return
		}
		m.mu.Unlock()
	}
	b.LockAcquired(t, core.NoWait)
}

// TryLock acquires m if it is free and reports whether it did.
func (m *Mutex) TryLock(b core.Backend, t core.Handle) bool {
	b.SyncOp(t, "TryLock", core.CostOp)
	return m.cas(t, 0, t.ID()<<1)
}

// Unlock releases m, handing it to the longest waiter if any.
func (m *Mutex) Unlock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "Unlock", core.CostOp)
	me := t.ID() << 1
	if !m.cas(t, me, 0) {
		// Only t clears waitBit, and waiters is not empty while it is
		// set. The handoff keeps waitBit while others still wait.
		step(t, true)
		m.mu.Lock()
		n := len(m.waiters)
		if n == 0 || !m.cas(t, me|waitBit, m.waiters[0].ID()<<1|int64(min(n-1, waitBit))) {
			m.mu.Unlock()
			panic(fmt.Sprintf("pthread: %s unlocking a mutex it does not hold", t.Name()))
		}
		w := popFront(&m.waiters)
		m.mu.Unlock()
		b.Wake(t, w)
	}
	b.Pause(t)
}

// holds reports whether t owns m.
func (m *Mutex) holds(t core.Handle) bool { return m.word.Load()&^waitBit == t.ID()<<1 }

// Cond is a condition variable used with a Mutex (pthread_cond_t).
type Cond struct {
	mu      sync.Mutex
	waiters []condWaiter
	// n is len(waiters), stored under mu. A waiter registers before it
	// releases the Mutex, so Signal and Broadcast skip mu when n is 0.
	n atomic.Int64
}

// condWaiter is a thread blocked in Wait, or in WaitTimeout with its
// timer. A listed waiter's timer is unclaimed: a timeout that wins its
// claim takes the waiter off the list.
type condWaiter struct {
	t     core.Handle
	timer *condTimer
}

// condTimer settles a timed wait's signal-vs-timeout race: whichever
// of the two claims it first wakes the thread, and the other does
// nothing. It is guarded by the Cond's mutex.
type condTimer struct {
	claimed  bool
	timedOut bool
	disarm   func()
}

// claim reports whether the caller won the race. Caller holds c.mu.
func (tm *condTimer) claim(timeout bool) bool {
	if tm.claimed {
		return false
	}
	tm.claimed, tm.timedOut = true, timeout
	return true
}

// signalled claims a listed waiter for a signal, so that its timer's
// later claim loses. Caller holds c.mu.
func (w condWaiter) signalled() {
	if w.timer != nil {
		w.timer.claim(false)
	}
}

// wake readies a claimed waiter from by's processor; its timer then no
// longer counts as a pending wake source.
func (w condWaiter) wake(b core.Backend, by core.Handle) {
	b.Wake(by, w.t)
	if w.timer != nil && w.timer.disarm != nil {
		w.timer.disarm()
	}
}

// Wait atomically releases mu and blocks until signalled, then
// reacquires mu before returning.
func (c *Cond) Wait(b core.Backend, t core.Handle, mu *Mutex) {
	c.wait(b, t, mu, false, 0, "Cond.Wait")
}

// WaitTimeout is Wait with a deadline d from now
// (pthread_cond_timedwait). It reports whether d passed before a
// signal arrived; either way mu is held on return.
func (c *Cond) WaitTimeout(b core.Backend, t core.Handle, mu *Mutex, d vtime.Duration) (timedOut bool) {
	return c.wait(b, t, mu, true, d, "Cond.WaitTimeout")
}

func (c *Cond) wait(b core.Backend, t core.Handle, mu *Mutex, timed bool, d vtime.Duration, op string) (timedOut bool) {
	b.SyncOp(t, op, core.CostCheck)
	if !mu.holds(t) {
		panic(fmt.Sprintf("pthread: %s waiting on a condition without holding the mutex", t.Name()))
	}
	if timed && d <= 0 {
		// Immediate timeout: POSIX returns ETIMEDOUT without blocking.
		return true
	}
	w := condWaiter{t: t}
	c.mu.Lock()
	b.BlockPrep(t)
	if timed {
		tm := &condTimer{}
		w.timer = tm
		tm.disarm = b.WakeAfter(t, d, func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			if !tm.claim(true) {
				return false
			}
			c.drop(tm)
			return true
		})
	}
	c.waiters = append(c.waiters, w)
	c.n.Store(int64(len(c.waiters)))
	c.mu.Unlock()
	mu.Unlock(b, t)
	b.Park(t)
	mu.Lock(b, t)
	// A timed wait's claim settled before t was woken.
	return timed && w.timer.timedOut
}

// drop takes the waiter whose timer tm just timed out off the list.
// Caller holds c.mu.
func (c *Cond) drop(tm *condTimer) {
	for i, w := range c.waiters {
		if w.timer == tm {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.n.Store(int64(len(c.waiters)))
}

// Signal wakes the longest waiter, if any.
func (c *Cond) Signal(b core.Backend, t core.Handle) {
	b.SyncOp(t, "Cond.Signal", core.CostOp)
	if c.n.Load() == 0 {
		return
	}
	c.mu.Lock()
	if len(c.waiters) == 0 { // a signal or a timeout took the last one
		c.mu.Unlock()
		return
	}
	w := popFront(&c.waiters)
	w.signalled()
	c.n.Store(int64(len(c.waiters)))
	c.mu.Unlock()
	w.wake(b, t)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast(b core.Backend, t core.Handle) {
	b.SyncOp(t, "Cond.Broadcast", core.CostOp)
	if c.n.Load() == 0 {
		return
	}
	c.mu.Lock()
	// The released list is handed off whole: a waker on another
	// processor may register new waiters before these are all woken.
	ws := c.waiters
	for _, w := range ws {
		w.signalled()
	}
	c.waiters = nil
	c.n.Store(0)
	c.mu.Unlock()
	for _, w := range ws {
		w.wake(b, t)
	}
}

// Semaphore is a counting semaphore (sem_t).
type Semaphore struct {
	mu      sync.Mutex
	count   int64
	waiters []core.Handle
}

// Init sets the initial count, before first use.
func (s *Semaphore) Init(n int64) {
	if n < 0 {
		panic("pthread: negative semaphore count")
	}
	s.count = n
}

// Wait decrements the semaphore, blocking t while it is zero.
func (s *Semaphore) Wait(b core.Backend, t core.Handle) {
	b.SyncOp(t, "SemWait", core.CostOp)
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		b.Pause(t)
		return
	}
	b.BlockPrep(t)
	s.waiters = append(s.waiters, t)
	s.mu.Unlock()
	b.SyncOp(t, "SemWait", core.CostSemBlock)
	b.Park(t)
	// The post transferred its increment directly to t.
}

// Post increments the semaphore, or hands the increment to the longest
// waiter if any.
func (s *Semaphore) Post(b core.Backend, t core.Handle) {
	b.SyncOp(t, "SemPost", core.CostOp)
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.count++
		s.mu.Unlock()
		b.Pause(t)
		return
	}
	w := popFront(&s.waiters)
	s.mu.Unlock()
	b.Wake(t, w)
}

// Value returns the current count (waiters imply zero).
func (s *Semaphore) Value() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Barrier blocks callers until its full party has arrived
// (pthread_barrier_t).
type Barrier struct {
	mu      sync.Mutex
	parties int
	arrived []core.Handle
	// spare is the previous round's list. Its releaser has finished
	// waking from it by the time this round releases, since that
	// releaser is one of this round's parties.
	spare []core.Handle
}

// Init sets the party count, before first use.
func (br *Barrier) Init(parties int) {
	if parties <= 0 {
		panic("pthread: barrier party count must be positive")
	}
	br.parties = parties
}

// Wait blocks t until the last party arrives; that last thread releases
// the others and reports true (PTHREAD_BARRIER_SERIAL_THREAD).
func (br *Barrier) Wait(b core.Backend, t core.Handle) bool {
	b.SyncOp(t, "BarrierWait", core.CostOp)
	br.mu.Lock()
	if len(br.arrived)+1 == br.parties {
		released := br.arrived
		br.arrived, br.spare = br.spare[:0], released
		// A barrier joins every party's critical path. The arrived
		// threads are parked (or about to), so their spans are stable.
		b.JoinSpans(t, released)
		br.mu.Unlock()
		for _, w := range released {
			b.Wake(t, w)
		}
		return true
	}
	b.BlockPrep(t)
	br.arrived = append(br.arrived, t)
	br.mu.Unlock()
	b.Park(t)
	return false
}

// Once runs a function exactly once across threads (pthread_once).
// Callers that arrive while the first caller's function runs block
// until it returns.
type Once struct {
	mu      sync.Mutex
	state   uint8 // onceIdle, onceRunning, onceDone
	waiters []core.Handle
}

const (
	onceIdle uint8 = iota
	onceRunning
	onceDone
)

// Do invokes fn on the first call for o.
func (o *Once) Do(b core.Backend, t core.Handle, fn func()) {
	b.SyncOp(t, "OnceDo", core.CostOp)
	o.mu.Lock()
	switch o.state {
	case onceDone:
		o.mu.Unlock()
		return
	case onceRunning:
		b.BlockPrep(t)
		o.waiters = append(o.waiters, t)
		o.mu.Unlock()
		b.Park(t)
		return
	}
	o.state = onceRunning
	o.mu.Unlock()
	fn()
	o.mu.Lock()
	o.state = onceDone
	released := o.waiters
	o.waiters = nil
	o.mu.Unlock()
	for _, w := range released {
		b.Wake(t, w)
	}
}

// RWMutex is a writer-preferring readers-writer lock
// (pthread_rwlock_t), as in the common Solaris implementation: once a
// writer is queued, new readers wait behind it, so writers cannot
// starve under a steady reader stream.
type RWMutex struct {
	mu      sync.Mutex
	readers int // active readers
	writer  core.Handle
	waitR   []core.Handle
	waitW   []core.Handle
}

// RLock acquires the lock for reading, blocking t while a writer holds
// or awaits it.
func (rw *RWMutex) RLock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "RLock", core.CostOp)
	b.Pause(t)
	rw.mu.Lock()
	if rw.writer == nil && len(rw.waitW) == 0 {
		rw.readers++
		rw.mu.Unlock()
		return
	}
	b.BlockPrep(t)
	rw.waitR = append(rw.waitR, t)
	rw.mu.Unlock()
	b.Park(t)
	// The releasing writer counted t among the readers.
}

// RUnlock releases a read hold; the last reader admits a waiting
// writer.
func (rw *RWMutex) RUnlock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "RUnlock", core.CostOp)
	rw.mu.Lock()
	if rw.readers <= 0 {
		rw.mu.Unlock()
		panic(fmt.Sprintf("pthread: %s read-unlocking an rwlock with no readers", t.Name()))
	}
	rw.readers--
	rw.release(b, t, rw.readers == 0)
}

// WLock acquires the lock exclusively.
func (rw *RWMutex) WLock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "WLock", core.CostOp)
	b.Pause(t)
	rw.mu.Lock()
	if rw.writer == t {
		rw.mu.Unlock()
		panic(fmt.Sprintf("pthread: %s write-locking an rwlock it already holds", t.Name()))
	}
	if rw.writer == nil && rw.readers == 0 {
		rw.writer = t
		rw.mu.Unlock()
		return
	}
	b.BlockPrep(t)
	rw.waitW = append(rw.waitW, t)
	rw.mu.Unlock()
	b.Park(t)
	// The releaser made t the writer.
}

// WUnlock releases the exclusive hold, admitting the next writer or
// else every waiting reader.
func (rw *RWMutex) WUnlock(b core.Backend, t core.Handle) {
	b.SyncOp(t, "WUnlock", core.CostOp)
	rw.mu.Lock()
	if rw.writer != t {
		rw.mu.Unlock()
		panic(fmt.Sprintf("pthread: %s write-unlocking an rwlock it does not hold", t.Name()))
	}
	rw.writer = nil
	rw.release(b, t, true)
}

// release finishes an unlock that holds rw.mu: if the lock is free it
// passes to the next waiting writer, or else to every waiting reader.
// It drops rw.mu, wakes whoever it admitted, and pauses.
func (rw *RWMutex) release(b core.Backend, t core.Handle, free bool) {
	var admitted []core.Handle
	switch {
	case !free:
	case len(rw.waitW) > 0:
		rw.writer = popFront(&rw.waitW)
		admitted = []core.Handle{rw.writer}
	default:
		admitted = rw.waitR
		rw.waitR = nil
		rw.readers += len(admitted)
	}
	rw.mu.Unlock()
	for _, w := range admitted {
		b.Wake(t, w)
	}
	b.Pause(t)
}

// SpinLock is a busy-waiting lock (pthread_spinlock_t): contended
// acquisition never deschedules the thread but burns its processor in
// back-off bursts until the holder releases — the point of a spin lock,
// and its danger.
type SpinLock struct {
	holder atomic.Int64 // the holder's ID, 0 when free
	spins  atomic.Int64
}

// Acquire takes the spin lock, spinning while it is held.
func (l *SpinLock) Acquire(b core.Backend, t core.Handle) {
	b.SyncOp(t, "SpinAcquire", core.CostOp)
	for burst := 0; !l.holder.CompareAndSwap(0, t.ID()); burst++ {
		l.spins.Add(1)
		b.Spin(t, burst)
	}
}

// Release frees the spin lock.
func (l *SpinLock) Release(b core.Backend, t core.Handle) {
	b.SyncOp(t, "SpinRelease", core.CostOp)
	if !l.holder.CompareAndSwap(t.ID(), 0) {
		panic(fmt.Sprintf("pthread: %s releasing a spin lock it does not hold", t.Name()))
	}
}

// Spins reports the busy-wait bursts contended acquisitions have cost
// so far (a contention diagnostic).
func (l *SpinLock) Spins() int64 { return l.spins.Load() }
