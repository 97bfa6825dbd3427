package sched

// Edge-case coverage for the ADF policy that the seed's tests left
// unexercised: cross-priority forks (the conservative insertHead path),
// the dummy-thread throttling boundary at exactly the quota, and a
// woken thread resuming at its serial position rather than its wake
// order.

import (
	"testing"
	"unsafe"

	"spthreads/internal/core"
)

// thread builds a bare thread for policy-level tests.
func thread(id int64, pri int) *core.Thread {
	return &core.Thread{ID: id, Priority: pri}
}

// TestADFCrossPriorityFork: a child forked into a different priority
// level has no serial anchor there, so it is placed leftmost; a later
// cross-priority fork into the same level lands left of the earlier
// one.
func TestADFCrossPriorityFork(t *testing.T) {
	for _, mk := range []struct {
		name string
		pol  func() *adfPolicy
	}{
		{"depa", func() *adfPolicy { return newADF(DefaultMemQuota, false) }},
		{"treap", func() *adfPolicy { return newADFTreap(DefaultMemQuota, false) }},
		{"reference", func() *adfPolicy { return NewADFReference(DefaultMemQuota, false).(*adfPolicy) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			p := mk.pol()
			root := thread(1, 0)
			p.OnCreate(nil, root)
			if got := p.Next(0); got != root {
				t.Fatalf("Next = %v, want root", got)
			}

			c1 := thread(2, 3)
			if !p.OnCreate(root, c1) {
				t.Fatal("cross-priority fork should still run the child immediately")
			}
			p.OnReady(root, 0) // parent preempted
			p.OnBlock(c1)      // c1 runs then blocks

			c2 := thread(3, 3)
			if got := p.Next(0); got != root {
				t.Fatalf("Next = %v, want preempted root", got)
			}
			p.OnCreate(root, c2)
			p.OnReady(root, 0)
			p.OnBlock(c2)

			// Level 3 now holds [c2, c1] (each insertHead), both blocked.
			p.OnReady(c1, 0)
			p.OnReady(c2, 0)
			if p.ReadyCount() != 3 {
				t.Fatalf("ReadyCount = %d, want 3", p.ReadyCount())
			}
			// Priority 3 outranks the root's level 0; within the level the
			// leftmost ready entry is the most recently head-inserted c2.
			if got := p.Next(0); got != c2 {
				t.Fatalf("Next = %v (id %d), want c2", got, got.ID)
			}
			if got := p.Next(0); got != c1 {
				t.Fatalf("Next = %v (id %d), want c1", got, got.ID)
			}
			if got := p.Next(0); got != root {
				t.Fatalf("Next = %v (id %d), want root", got, got.ID)
			}
			for _, th := range []*core.Thread{c1, c2, root} {
				p.OnExit(th)
			}
			if p.Live() != 0 {
				t.Fatalf("Live = %d after all exits, want 0", p.Live())
			}
		})
	}
}

// TestADFDummyBoundary: an allocation of exactly K bytes forks no dummy
// threads; one byte more crosses the throttle and forks ceil(m/K) = 2.
func TestADFDummyBoundary(t *testing.T) {
	const k = 4096
	p := newADF(k, false)
	cases := []struct {
		m    int64
		want int
	}{
		{k - 1, 0},
		{k, 0},
		{k + 1, 2},
		{2 * k, 2},
		{2*k + 1, 3},
	}
	for _, c := range cases {
		if got := p.AllocDummies(c.m); got != c.want {
			t.Errorf("AllocDummies(%d) = %d, want %d (K=%d)", c.m, got, c.want, k)
		}
	}
}

// TestADFWakeResumesAtSerialPosition: two blocked placeholders are
// woken in reverse serial order; dispatch must follow the serial
// (depth-first) order, not the wake order a FIFO queue would give.
func TestADFWakeResumesAtSerialPosition(t *testing.T) {
	for _, mk := range []struct {
		name string
		pol  func() *adfPolicy
	}{
		{"depa", func() *adfPolicy { return newADF(DefaultMemQuota, false) }},
		{"treap", func() *adfPolicy { return newADFTreap(DefaultMemQuota, false) }},
		{"reference", func() *adfPolicy { return NewADFReference(DefaultMemQuota, false).(*adfPolicy) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			p := mk.pol()
			root := thread(1, 0)
			p.OnCreate(nil, root)
			if p.Next(0) != root {
				t.Fatal("root should dispatch")
			}
			// Serial order after two forks from the root: [a, b, root]
			// (each child lands immediately left of the root).
			a := thread(2, 0)
			p.OnCreate(root, a)
			p.OnReady(root, 0)
			p.OnBlock(a)
			if p.Next(0) != root {
				t.Fatal("preempted root should dispatch")
			}
			b := thread(3, 0)
			p.OnCreate(root, b)
			p.OnReady(root, 0)
			p.OnBlock(b)

			// Wake in reverse serial order: b first, then a.
			p.OnReady(b, 0)
			p.OnReady(a, 0)
			if got := p.Next(0); got != a {
				t.Fatalf("Next = id %d, want a (leftmost serial position), not wake order", got.ID)
			}
			if got := p.Next(0); got != b {
				t.Fatalf("Next = id %d, want b", got.ID)
			}
			if got := p.Next(0); got != root {
				t.Fatalf("Next = id %d, want root", got.ID)
			}
		})
	}
}

// TestPlaceholderEntrySize: every live thread holds one placeholder, so
// each word added here is paid once per lightweight thread under adf
// and adf-shard. 48 B is a Go size class.
func TestPlaceholderEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(readyEntry{}); got > 48 {
		t.Errorf("unsafe.Sizeof(readyEntry{}) = %d, want <= 48", got)
	}
}

// TestADFReusesRecycledPlaceholder: an exited thread's placeholder
// entry goes to the store's free list, and the next fork takes it
// instead of allocating one. The next thread gets the same entry, not
// ready while it runs, holding its own thread, priority and label. Both
// DePa stores share the placeholders, so adf and adf-shard are checked;
// adf keeps one store per priority level, so both forks use level 1.
func TestADFReusesRecycledPlaceholder(t *testing.T) {
	for _, pol := range []core.Policy{newADF(DefaultMemQuota, false), newShard(2, 4, DefaultMemQuota, false)} {
		spy := &createSpy{Policy: pol, recs: map[int64]*core.Thread{}}
		m, err := core.New(core.Config{Procs: 2, Policy: spy})
		if err != nil {
			t.Fatal(err)
		}
		var first *readyEntry
		_, err = m.Execute(func(root core.Handle) {
			a := m.Fork(root, core.Attr{Priority: 1}, core.Func(func(c core.Handle) {
				first = spy.recs[c.ID()].SchedState.(*readyEntry)
			}))
			if err := m.Join(root, a); err != nil {
				t.Error(err)
				return
			}
			b := m.Fork(root, core.Attr{Priority: 1}, core.Func(func(h core.Handle) {
				c := spy.recs[h.ID()]
				e := c.SchedState.(*readyEntry)
				if e != first || e.ready || e.t != c || e.pri != 1 || e.label.Compare(c.Order) != 0 {
					t.Errorf("%s: placeholder reused %v, ready %v, own thread %v, pri %d, label match %v",
						pol.Name(), e == first, e.ready, e.t == c, e.pri, e.label.Compare(c.Order) == 0)
				}
			}))
			if err := m.Join(root, b); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// createSpy records the machine's record of every thread it creates, by
// ID, so a test can reach a running thread's policy state from its
// handle. It hides the inner policy's optional interfaces, so the
// machine drives it as a plain policy.
type createSpy struct {
	core.Policy
	recs map[int64]*core.Thread
}

func (s *createSpy) OnCreate(parent, child *core.Thread) bool {
	s.recs[child.ID] = child
	return s.Policy.OnCreate(parent, child)
}
