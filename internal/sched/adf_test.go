package sched

// Edge-case coverage for the ADF policy that the seed's tests left
// unexercised: cross-priority forks (the conservative insertHead path),
// the dummy-thread throttling boundary at exactly the quota, and a
// woken thread resuming at its serial position rather than its wake
// order.

import (
	"testing"

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
		pol  func() adfSide
	}{
		{"depa", func() adfSide { return newADF() }},
		{"treap", func() adfSide { return newADFTreap() }},
		{"reference", func() adfSide { return NewADFReference().(*refADF) }},
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
	q, err := ADF.Quota(k, false)
	if err != nil {
		t.Fatal(err)
	}
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
		if got := q.DummiesFor(c.m); got != c.want {
			t.Errorf("DummiesFor(%d) = %d, want %d (K=%d)", c.m, got, c.want, k)
		}
	}
}

// TestADFWakeResumesAtSerialPosition: two blocked placeholders are
// woken in reverse serial order; dispatch must follow the serial
// (depth-first) order, not the wake order a FIFO queue would give.
func TestADFWakeResumesAtSerialPosition(t *testing.T) {
	for _, mk := range []struct {
		name string
		pol  func() adfSide
	}{
		{"depa", func() adfSide { return newADF() }},
		{"treap", func() adfSide { return newADFTreap() }},
		{"reference", func() adfSide { return NewADFReference().(*refADF) }},
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
