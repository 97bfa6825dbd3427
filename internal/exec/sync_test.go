package exec

import (
	"strings"
	"sync"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// The lock-order rule of sync.go, checked on every object against a
// sequential fake backend whose Park returns at once: BlockPrep runs
// under the object lock, Park and Wake outside it.

// thread is a fake thread; IDs, as on both backends, are distinct and
// start at 1.
type thread struct {
	id   int64
	name string
}

func (f *thread) ID() int64       { return f.id }
func (f *thread) Name() string    { return f.name }
func (f *thread) TLSGet(any) any  { return nil }
func (f *thread) TLSSet(any, any) {}

// fake implements the primitives; the objects call nothing else.
type fake struct {
	core.Backend
	t        *testing.T
	obj      *sync.Mutex // the object lock under test
	woken    []core.Handle
	claim    func() bool
	disarmed int
}

func (f *fake) held() bool {
	if f.obj.TryLock() {
		f.obj.Unlock()
		return false
	}
	return true
}

func (f *fake) check(step string, t core.Handle, wantHeld bool) {
	if f.held() != wantHeld {
		f.t.Errorf("%s(%s) with the object lock held = %v, want %v", step, t.Name(), !wantHeld, wantHeld)
	}
}

func (f *fake) SyncOp(core.Handle, string, core.SyncCost) {}
func (f *fake) Pause(core.Handle)                         {}
func (f *fake) Spin(core.Handle, int)                     {}
func (f *fake) LockStamp(core.Handle) int64               { return 0 }
func (f *fake) LockAcquired(core.Handle, int64)           {}
func (f *fake) BlockPrep(t core.Handle)                   { f.check("BlockPrep", t, true) }
func (f *fake) Park(t core.Handle)                        { f.check("Park", t, false) }
func (f *fake) JoinSpans(t core.Handle, _ []core.Handle)  { f.check("JoinSpans", t, true) }

func (f *fake) Wake(by, w core.Handle) {
	f.check("Wake", w, false)
	f.woken = append(f.woken, w)
}

func (f *fake) WakeAfter(t core.Handle, _ vtime.Duration, claim func() bool) func() {
	f.check("WakeAfter", t, true)
	f.claim = claim
	return func() { f.disarmed++ }
}

func (f *fake) wantWoken(want ...core.Handle) {
	f.t.Helper()
	if len(f.woken) != len(want) {
		f.t.Fatalf("woken %v, want %v", f.woken, want)
	}
	for i := range want {
		if f.woken[i] != want[i] {
			f.t.Fatalf("woken %v, want %v", f.woken, want)
		}
	}
	f.woken = nil
}

// wantPanic runs f and fails t unless it panics with a message
// containing want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestLockOrder(t *testing.T) {
	a, b := &thread{1, "a"}, &thread{2, "b"}

	t.Run("mutex", func(t *testing.T) {
		var m Mutex
		f := &fake{t: t, obj: &m.mu}
		m.Lock(f, a)
		m.Lock(f, b) // blocks
		// Misuse on the slow paths releases the object lock as it panics.
		wantPanic(t, "does not hold", func() { m.Unlock(f, &thread{3, "c"}) })
		wantPanic(t, "already holds", func() { m.Lock(f, a) })
		m.Unlock(f, a)
		f.wantWoken(b)
		m.Unlock(f, b) // ownership was handed to b
		if w := m.word.Load(); w != 0 {
			t.Errorf("word %#x after the last unlock, want 0", w)
		}
	})

	t.Run("cond", func(t *testing.T) {
		var (
			mu Mutex
			c  Cond
		)
		f := &fake{t: t, obj: &c.mu}
		mu.Lock(f, b)
		c.Wait(f, b, &mu)
		mu.Unlock(f, b)
		c.Signal(f, a)
		f.wantWoken(b)

		// A signal beats the timeout: the timer is disarmed and its
		// late claim loses.
		mu.Lock(f, b)
		if c.WaitTimeout(f, b, &mu, 1) {
			t.Error("signalled wait reported a timeout")
		}
		mu.Unlock(f, b)
		c.Broadcast(f, a)
		f.wantWoken(b)
		if f.disarmed != 1 || f.claim() {
			t.Errorf("disarmed %d times, late claim won: want one disarm and a lost claim", f.disarmed)
		}

		// A timeout beats the signal, which then wakes nobody.
		mu.Lock(f, b)
		f.claim = nil
		c.WaitTimeout(f, b, &mu, 1)
		if !f.claim() {
			t.Error("timeout lost its claim with no signal")
		}
		mu.Unlock(f, b)
		c.Signal(f, a)
		f.wantWoken()

		// With no waiter left, Signal and Broadcast leave the object
		// lock alone: here they would deadlock on it.
		c.mu.Lock()
		c.Signal(f, a)
		c.Broadcast(f, a)
		c.mu.Unlock()
	})

	t.Run("semaphore", func(t *testing.T) {
		var s Semaphore
		f := &fake{t: t, obj: &s.mu}
		s.Wait(f, b) // blocks
		s.Post(f, a)
		f.wantWoken(b)
		if s.Value() != 0 {
			t.Errorf("value %d after a post handed to a waiter, want 0", s.Value())
		}
	})

	t.Run("barrier", func(t *testing.T) {
		var br Barrier
		br.Init(2)
		f := &fake{t: t, obj: &br.mu}
		if br.Wait(f, b) {
			t.Error("first arrival was the serial thread")
		}
		if !br.Wait(f, a) {
			t.Error("last arrival was not the serial thread")
		}
		f.wantWoken(b)
	})

	t.Run("once", func(t *testing.T) {
		var o Once
		f := &fake{t: t, obj: &o.mu}
		runs := 0
		o.Do(f, a, func() {
			runs++
			o.Do(f, b, func() { runs++ }) // arrives while fn runs: blocks
			f.wantWoken()
		})
		f.wantWoken(b)
		if runs != 1 {
			t.Errorf("fn ran %d times", runs)
		}
	})

	t.Run("rwmutex", func(t *testing.T) {
		var rw RWMutex
		f := &fake{t: t, obj: &rw.mu}
		rw.WLock(f, a)
		rw.RLock(f, b) // blocks
		rw.WUnlock(f, a)
		f.wantWoken(b)
		rw.WLock(f, a) // blocks behind reader b
		rw.RUnlock(f, b)
		f.wantWoken(a)
	})
}

// TestCondTimeoutsLeaveNoWaiters: a timed wait that times out takes its
// waiter off the list, so a thread polling with timeouts and no
// signaller leaves none behind, and a later Signal finds no waiter
// without taking the object lock.
func TestCondTimeoutsLeaveNoWaiters(t *testing.T) {
	var (
		mu Mutex
		c  Cond
	)
	a := &thread{1, "a"}
	f := &fake{t: t, obj: &c.mu}
	for i := 0; i < 1000; i++ {
		mu.Lock(f, a)
		c.WaitTimeout(f, a, &mu, 1) // Park returns at once; the timer fires next
		if !f.claim() {
			t.Fatalf("wait %d: timeout lost its claim with no signal", i)
		}
		mu.Unlock(f, a)
	}
	if len(c.waiters) != 0 || c.n.Load() != 0 {
		t.Fatalf("after 1000 timed-out waits: %d waiters, n = %d; want 0 and 0", len(c.waiters), c.n.Load())
	}
	c.mu.Lock() // held: a Signal that took it would deadlock here
	c.Signal(f, a)
	c.mu.Unlock()
	f.wantWoken()
}
