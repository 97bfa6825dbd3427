package native

import (
	"fmt"
	"sync"
	"time"

	"spthreads/internal/exec"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Scheduler-integrated blocking synchronization. Each object has its
// own host mutex guarding its waiter state; blocking always follows
// the same shape:
//
//	obj.mu.Lock()
//	  (fast path? -> unlock, return)
//	  b.blockPrep(t)        // policy OnBlock under the scheduler lock
//	  register t as waiter
//	obj.mu.Unlock()
//	t.blockPark()           // pass the processor on, wait for redispatch
//
// The lock order is object mutex -> scheduler lock, and wakers call
// readyThread after releasing the object mutex, so the two locks never
// nest in the opposite direction. Registering *after* blockPrep
// guarantees a waker's OnReady can never precede the waiter's OnBlock
// in the policy. Wake-before-park is safe because a dispatch is a post
// into the thread's one-slot mailbox: a thread woken and dispatched
// before it reaches its park — by anyone, itself included — finds the
// processor waiting there.

// nativeMutex is a blocking lock with FIFO handoff.
type nativeMutex struct {
	b       *Backend
	mu      sync.Mutex
	owner   *thread
	waiters []*thread
}

func (m *nativeMutex) Lock(pt exec.Thread) {
	t := nt(pt)
	b := m.b
	m.mu.Lock()
	if m.owner == nil {
		m.owner = t
		m.mu.Unlock()
		b.mutexWait.Observe(0)
		b.tracer.record(t.pid, t.ID(), trace.KindLockAcquire, 0)
		return
	}
	if m.owner == t {
		panic(fmt.Sprintf("native: %s locking a mutex it already holds", t.Name()))
	}
	var t0 time.Time
	if b.mutexWait != nil || b.tracer != nil {
		t0 = time.Now()
	}
	b.blockPrep(t)
	m.waiters = append(m.waiters, t)
	m.mu.Unlock()
	t.blockPark()
	// Unlock transferred ownership to us before waking us.
	if !t0.IsZero() {
		waited := time.Since(t0).Nanoseconds()
		b.mutexWait.Observe(waited)
		b.tracer.record(t.pid, t.ID(), trace.KindLockAcquire, waited)
	}
}

func (m *nativeMutex) TryLock(pt exec.Thread) bool {
	t := nt(pt)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner == nil {
		m.owner = t
		return true
	}
	return false
}

func (m *nativeMutex) Unlock(pt exec.Thread) {
	t := nt(pt)
	m.mu.Lock()
	if m.owner != t {
		m.mu.Unlock()
		panic(fmt.Sprintf("native: %s unlocking a mutex it does not hold", t.Name()))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		m.mu.Unlock()
		return
	}
	w := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.owner = w
	m.mu.Unlock()
	m.b.readyThread(w, t.pid)
}

func (b *Backend) NewMutex() exec.Mutex { return &nativeMutex{b: b} }

// nativeCond is a condition variable.
type nativeCond struct {
	b       *Backend
	mu      sync.Mutex
	waiters []nativeCondWaiter
}

// nativeCondWaiter pairs a blocked thread with an optional wake token
// for timed waits. Tokens are guarded by the cond's mutex.
type nativeCondWaiter struct {
	t   *thread
	tok *nativeWakeToken
}

// nativeWakeToken arbitrates the signal-vs-timeout race: the first
// party to consume it wins.
type nativeWakeToken struct {
	consumed bool
	timedOut bool
}

func (c *nativeCond) Wait(pt exec.Thread, mu exec.Mutex) {
	t := nt(pt)
	nm := mu.(*nativeMutex)
	if nm.owner != t {
		panic(fmt.Sprintf("native: %s waiting on a condition without holding the mutex", t.Name()))
	}
	c.mu.Lock()
	c.b.blockPrep(t)
	c.waiters = append(c.waiters, nativeCondWaiter{t: t})
	c.mu.Unlock()
	nm.Unlock(pt)
	t.blockPark()
	nm.Lock(pt)
}

func (c *nativeCond) WaitTimeout(pt exec.Thread, mu exec.Mutex, d vtime.Duration) bool {
	t := nt(pt)
	nm := mu.(*nativeMutex)
	if nm.owner != t {
		panic(fmt.Sprintf("native: %s waiting on a condition without holding the mutex", t.Name()))
	}
	if d <= 0 {
		// Immediate timeout: POSIX returns ETIMEDOUT without blocking.
		return true
	}
	tok := &nativeWakeToken{}
	c.mu.Lock()
	c.b.blockPrep(t)
	c.b.addSleeper()
	c.waiters = append(c.waiters, nativeCondWaiter{t: t, tok: tok})
	c.mu.Unlock()
	nm.Unlock(pt)
	time.AfterFunc(vToWall(d), func() {
		c.mu.Lock()
		if tok.consumed {
			c.mu.Unlock()
			return
		}
		tok.consumed = true
		tok.timedOut = true
		c.mu.Unlock()
		c.b.wakeSleeper(t)
	})
	t.blockPark()
	nm.Lock(pt)
	// The claim resolved before our wake; no lock needed for the read.
	return tok.timedOut
}

func (c *nativeCond) Signal(pt exec.Thread) {
	t := nt(pt)
	c.mu.Lock()
	w, ok := c.popLocked()
	c.mu.Unlock()
	if ok {
		c.b.readyThread(w.t, t.pid)
		if w.tok != nil {
			// A timed waiter woken by signal: its timer no longer counts
			// as a pending wake source.
			c.b.removeSleeper()
		}
	}
}

func (c *nativeCond) Broadcast(pt exec.Thread) {
	t := nt(pt)
	c.mu.Lock()
	var woken []nativeCondWaiter
	for {
		w, ok := c.popLocked()
		if !ok {
			break
		}
		woken = append(woken, w)
	}
	c.mu.Unlock()
	for _, w := range woken {
		c.b.readyThread(w.t, t.pid)
		if w.tok != nil {
			c.b.removeSleeper()
		}
	}
}

// popLocked removes the longest waiter whose timed wait has not already
// fired, consuming its token. Caller holds c.mu.
func (c *nativeCond) popLocked() (nativeCondWaiter, bool) {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:len(c.waiters)-1]
		if w.tok != nil {
			if w.tok.consumed {
				continue // its timeout already woke it
			}
			w.tok.consumed = true
		}
		return w, true
	}
	return nativeCondWaiter{}, false
}

func (b *Backend) NewCond() exec.Cond { return &nativeCond{b: b} }

// addSleeper / removeSleeper track pending timer wake sources for
// deadlock detection (a pending timeout means progress is possible).
func (b *Backend) addSleeper() {
	b.lock()
	b.sleepers++
	b.mu.Unlock()
}

func (b *Backend) removeSleeper() {
	b.lock()
	b.sleepers--
	b.mu.Unlock()
}

// nativeSemaphore is a counting semaphore.
type nativeSemaphore struct {
	b       *Backend
	mu      sync.Mutex
	count   int64
	waiters []*thread
}

func (s *nativeSemaphore) Wait(pt exec.Thread) {
	t := nt(pt)
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return
	}
	s.b.blockPrep(t)
	s.waiters = append(s.waiters, t)
	s.mu.Unlock()
	t.blockPark()
	// The post transferred its increment directly to us.
}

func (s *nativeSemaphore) Post(pt exec.Thread) {
	t := nt(pt)
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.count++
		s.mu.Unlock()
		return
	}
	w := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters = s.waiters[:len(s.waiters)-1]
	s.mu.Unlock()
	s.b.readyThread(w, t.pid)
}

func (s *nativeSemaphore) Value() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (b *Backend) NewSemaphore(n int64) exec.Semaphore {
	if n < 0 {
		panic("native: negative semaphore count")
	}
	return &nativeSemaphore{b: b, count: n}
}

// nativeBarrier blocks callers until the full party arrives.
type nativeBarrier struct {
	b       *Backend
	parties int
	mu      sync.Mutex
	arrived []*thread
}

func (br *nativeBarrier) Wait(pt exec.Thread) bool {
	t := nt(pt)
	br.mu.Lock()
	if len(br.arrived)+1 == br.parties {
		// A barrier joins every party's critical path. The arrived
		// threads are parked (or arriving at their park), so their spans
		// are stable under br.mu.
		maxSpan := t.span
		for _, w := range br.arrived {
			if w.span > maxSpan {
				maxSpan = w.span
			}
		}
		t.span = maxSpan
		released := br.arrived
		br.arrived = nil
		br.mu.Unlock()
		for _, w := range released {
			w.span = maxSpan
			br.b.readyThread(w, t.pid)
		}
		return true
	}
	br.b.blockPrep(t)
	br.arrived = append(br.arrived, t)
	br.mu.Unlock()
	t.blockPark()
	return false
}

func (b *Backend) NewBarrier(n int) exec.Barrier {
	if n <= 0 {
		panic("native: barrier party count must be positive")
	}
	return &nativeBarrier{b: b, parties: n}
}

// nativeOnce runs a function exactly once; concurrent callers block
// until the first caller's function returns (pthread_once semantics).
type nativeOnce struct {
	b       *Backend
	mu      sync.Mutex
	state   int // 0 idle, 1 running, 2 done
	waiters []*thread
}

func (o *nativeOnce) Do(pt exec.Thread, fn func()) {
	t := nt(pt)
	o.mu.Lock()
	switch o.state {
	case 2:
		o.mu.Unlock()
		return
	case 1:
		o.b.blockPrep(t)
		o.waiters = append(o.waiters, t)
		o.mu.Unlock()
		t.blockPark()
		return
	}
	o.state = 1
	o.mu.Unlock()
	fn()
	o.mu.Lock()
	o.state = 2
	released := o.waiters
	o.waiters = nil
	o.mu.Unlock()
	for _, w := range released {
		o.b.readyThread(w, t.pid)
	}
}

func (b *Backend) NewOnce() exec.Once { return &nativeOnce{b: b} }
