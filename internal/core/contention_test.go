package core

import (
	"testing"

	"spthreads/internal/vtime"
)

// TestContentionZeroWaitFastPath: operations that never share a window
// are all free, regardless of how many the model has seen — the
// uncontended fast path of every lock.
func TestContentionZeroWaitFastPath(t *testing.T) {
	c := newContention(vtime.Micro(5), vtime.Micro(100))
	for i := 0; i < 200; i++ {
		at := vtime.Time(vtime.Micro(float64(i * 150))) // one op per window, windows skipped
		if w := c.wait(at); w != 0 {
			t.Fatalf("op %d at %v waited %v, want 0", i, at, w)
		}
	}
}

// TestContentionInterleavedClocks: processors' clocks are not
// monotonically interleaved — a slow processor can land an operation at
// an earlier virtual time than one already recorded. Queueing depends
// only on which window an op lands in, not on arrival order.
func TestContentionInterleavedClocks(t *testing.T) {
	c := newContention(vtime.Micro(3), vtime.Micro(100))
	// Proc A at 110us: first in window [100,200).
	if w := c.wait(vtime.Time(vtime.Micro(110))); w != 0 {
		t.Errorf("A@110us waited %v, want 0", w)
	}
	// Proc B, behind A, lands at 50us: first in window [0,100) — free
	// even though a later-time op was already recorded.
	if w := c.wait(vtime.Time(vtime.Micro(50))); w != 0 {
		t.Errorf("B@50us waited %v, want 0", w)
	}
	// Proc C at 190us shares A's window: queues behind one op.
	if w := c.wait(vtime.Time(vtime.Micro(190))); w != vtime.Micro(3) {
		t.Errorf("C@190us waited %v, want 3us", w)
	}
	// Proc B again at 99us: second op in [0,100).
	if w := c.wait(vtime.Time(vtime.Micro(99))); w != vtime.Micro(3) {
		t.Errorf("B@99us waited %v, want 3us", w)
	}
	// Third op back in A's window queues behind two.
	if w := c.wait(vtime.Time(vtime.Micro(120))); w != vtime.Micro(6) {
		t.Errorf("@120us waited %v, want 6us", w)
	}
}

// TestContentionWindowDecay: queue depth does not leak across window
// boundaries — a burst in one window leaves the next window's first
// operation free, and an exact-boundary timestamp belongs to the new
// window.
func TestContentionWindowDecay(t *testing.T) {
	c := newContention(vtime.Micro(2), vtime.Micro(100))
	for i := 0; i < 10; i++ {
		c.wait(vtime.Time(vtime.Micro(10)))
	}
	// 100us is the first instant of window [100,200): depth resets.
	if w := c.wait(vtime.Time(vtime.Micro(100))); w != 0 {
		t.Errorf("boundary op waited %v, want 0 (new window)", w)
	}
	// 99us is still the burst's window: waits are capped at the window.
	if w := c.wait(vtime.Time(vtime.Micro(99))); w != vtime.Micro(20) {
		t.Errorf("same-window op waited %v, want 20us (10 ops x 2us)", w)
	}
	// Several windows later with no traffic in between: free again.
	if w := c.wait(vtime.Time(vtime.Micro(950))); w != 0 {
		t.Errorf("decayed op waited %v, want 0", w)
	}
}

// globalPolicy is a global-queue policy, the shape Config.SchedBatch
// needs to leave the direct path; New only checks the shape, so its
// methods are never run here.
type globalPolicy struct{ fakePolicy }

func (globalPolicy) Global() bool { return true }

// TestSchedModeResolution: SchedBatch > 1 batches a global-queue
// policy, 0 or 1 is the direct path, and a policy without the global
// lock silently keeps the direct path.
func TestSchedModeResolution(t *testing.T) {
	for _, batch := range []int{0, 1, 16} {
		batched := 0
		if batch > 1 {
			batched = batch
		}
		for _, tc := range []struct {
			pol  Policy
			want int
		}{{fakePolicy{}, 0}, {globalPolicy{}, batched}} {
			m, err := New(Config{Policy: tc.pol, SchedBatch: batch})
			if err != nil {
				t.Fatalf("SchedBatch %d: %v", batch, err)
			}
			if m.batch != tc.want {
				t.Errorf("%T, SchedBatch %d: batch = %d, want %d", tc.pol, batch, m.batch, tc.want)
			}
		}
	}
}

// TestContentionPruneBoundary: prune keeps the horizon's own window and
// the one before it (a slow processor may still land there) and drops
// everything older.
func TestContentionPruneBoundary(t *testing.T) {
	c := newContention(vtime.Micro(1), vtime.Micro(100))
	for _, us := range []float64{50, 150, 250, 350} { // windows 0,1,2,3
		c.wait(vtime.Time(vtime.Micro(us)))
	}
	c.prune(vtime.Time(vtime.Micro(350))) // horizon in window 3: cutoff 2
	if c.size() != 2 {
		t.Fatalf("size after prune = %d, want 2 (windows 2 and 3)", c.size())
	}
	// Window 2 survived: an op there queues behind the recorded one.
	if w := c.wait(vtime.Time(vtime.Micro(260))); w != vtime.Micro(1) {
		t.Errorf("op in surviving window waited %v, want 1us", w)
	}
	// Window 0 was dropped: an op there is free again.
	if w := c.wait(vtime.Time(vtime.Micro(60))); w != 0 {
		t.Errorf("op in pruned window waited %v, want 0", w)
	}
	// The next op past the live windows still starts a fresh window.
	if w := c.wait(vtime.Time(vtime.Micro(480))); w != 0 {
		t.Errorf("op in a new window waited %v, want 0", w)
	}
}

// TestContentionWaitAllocatesNothing: in steady state, with the clock
// moving forward and the model pruned as the machine prunes it, an
// operation allocates nothing. The window slice is reused once it has
// grown to the prune threshold.
func TestContentionWaitAllocatesNothing(t *testing.T) {
	c := newContention(vtime.Micro(1), vtime.Micro(100))
	now := vtime.Time(vtime.Micro(1000))
	op := func() {
		now += vtime.Time(vtime.Micro(40))
		c.wait(now)
		c.wait(now - vtime.Time(vtime.Micro(150))) // a processor behind
		if c.size() > 1<<14 {
			c.prune(now - vtime.Time(vtime.Micro(150)))
		}
	}
	for i := 0; i < 1<<16; i++ {
		op()
	}
	if a := testing.AllocsPerRun(1<<15, op); a != 0 {
		t.Errorf("%v allocations per steady-state wait, want 0", a)
	}
}

// TestContentionIdleProcessor: an idle processor's clock holds the
// prune base while another processor takes the scheduler lock across
// more than 2^14 windows, as in a serial phase at p > 1. The slice then
// spans every window the busy processor crossed, and each wait is the
// one of a model that never prunes. Once the idle processor catches up,
// the next operation prunes the span to the two windows at its clock.
func TestContentionIdleProcessor(t *testing.T) {
	m, err := New(Config{Procs: 2, Policy: fakePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	l, busy, idle := m.schedLock, m.procs[0], m.procs[1]
	ref := newContention(l.opCost, l.window)
	const windows = 1<<14 + 100
	for w := 0; w < windows; w++ {
		for k := 0; k < 3; k++ { // three ops per window, a third of one apart
			at := vtime.Time(w)*vtime.Time(l.window) + vtime.Time(k)*vtime.Time(l.window/3)
			busy.clock = at
			before := busy.stats.LockWait
			m.schedLockWait(busy, l)
			if got, want := busy.stats.LockWait-before, ref.wait(at); got != want {
				t.Fatalf("window %d op %d waited %v, want %v", w, k, got, want)
			}
		}
	}
	if l.size() != windows || l.base != 0 {
		t.Fatalf("with one processor idle: size %d, base %d; want %d, 0", l.size(), l.base, windows)
	}
	idle.clock = busy.clock
	m.schedLockWait(busy, l)
	if l.size() != 2 {
		t.Errorf("after the idle processor caught up: size %d, want 2", l.size())
	}
}
