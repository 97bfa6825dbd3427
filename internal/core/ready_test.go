package core

// Tests for the ready order's deque and the steal rule. StealVictim is
// checked against stealVictimRef, the direct O(p²) reading of the rule,
// and against the true rank of the victim's leftmost thread.

import (
	"math/rand"
	"slices"
	"testing"
)

type intItem int

func (a intItem) Before(b intItem) bool { return a < b }

// TestOrderedPopsInOrder: pushes report whether the item became the
// minimum, and pops drain in ascending order.
func TestOrderedPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Ordered[intItem]
	var want []intItem
	for i := 0; i < 500; i++ {
		x := intItem(rng.Intn(100))
		wasMin := d.Len() == 0 || x < d.Min()
		if got := d.Push(x); got != wasMin {
			t.Fatalf("Push(%d) = %v with minimum %d", x, got, d.Min())
		}
		want = append(want, x)
		if i%3 == 2 {
			slices.Sort(want)
			if got := d.Pop(); got != want[0] {
				t.Fatalf("Pop = %d, want %d", got, want[0])
			}
			want = want[1:]
		}
	}
	slices.Sort(want)
	for _, w := range want {
		if got := d.Pop(); got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("%d items left", d.Len())
	}
}

// dequeItem is a fuzzed item: the zero value, which no live item is,
// is what every slot outside the window must hold.
type dequeItem struct {
	v    int
	live bool
}

func (a dequeItem) Before(b dequeItem) bool { return a.v < b.v }

// checkDeque requires d to hold exactly want (sorted), with the zero
// item in every slot of its array outside the window.
func checkDeque(t *testing.T, op int, d *Ordered[dequeItem], want []int) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("op %d: Len = %d, want %d", op, d.Len(), len(want))
	}
	for i, x := range d.Items() {
		if !x.live || x.v != want[i] {
			t.Fatalf("op %d: item %d is %+v, want %d (items %v)", op, i, x, want[i], d.Items())
		}
	}
	for i, x := range d.a[:cap(d.a)] {
		if (i < d.lo || i >= len(d.a)) && x != (dequeItem{}) {
			t.Fatalf("op %d: slot %d outside the window [%d, %d) holds %+v", op, i, d.lo, len(d.a), x)
		}
	}
}

// FuzzReadyDeque drives an Ordered deque against a sorted-slice oracle.
// Each byte is one operation: a pop, or a push of a new minimum, a new
// maximum, a value from anywhere in the range, or a copy of a held one.
// Inputs are cut to 1024 operations: every check walks the whole array.
func FuzzReadyDeque(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 4, 4, 4, 4, 1, 1, 1, 4, 4, 4})
	f.Add([]byte("the fuzzer mixes pushes at both ends with pops and ties"))
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 400)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var d Ordered[dequeItem]
		var want []int
		for k, b := range ops[:min(len(ops), 1024)] {
			if b%5 == 4 {
				if len(want) == 0 {
					continue
				}
				if got := d.Pop(); !got.live || got.v != want[0] {
					t.Fatalf("op %d: Pop = %+v, want %d", k, got, want[0])
				}
				want = want[1:]
				checkDeque(t, k, &d, want)
				continue
			}
			v, r := 0, int(b/5) // r in [0, 51]
			switch {
			case len(want) == 0:
				v = r
			case b%5 == 0:
				v = want[0] - 1 - r%3
			case b%5 == 1:
				v = want[len(want)-1] + r%3
			case b%5 == 2:
				v = want[0] + r*(want[len(want)-1]-want[0]+1)/52
			default:
				v = want[r%len(want)]
			}
			wasMin := len(want) == 0 || v < want[0]
			if got := d.Push(dequeItem{v, true}); got != wasMin {
				t.Fatalf("op %d: Push(%d) = %v, want %v (minimum %v)", k, v, got, wasMin, want)
			}
			i, _ := slices.BinarySearch(want, v)
			want = slices.Insert(want, i, v)
			checkDeque(t, k, &d, want)
		}
	})
}

// TestReadyDequeBounded pins the steady-state cost of the three shapes
// the stores drive: pushes and pops at the front over a resident set (a
// fork chain), a queue (the sim's ready times), and one item pushed
// into and popped from an emptied deque. After a warm-up run none
// allocates, and the array stays within twice the peak size plus 8.
func TestReadyDequeBounded(t *testing.T) {
	const ops = 100_000
	for _, c := range []struct {
		name string
		run  func(d *Ordered[intItem], next *int)
	}{
		{"fork-chain", func(d *Ordered[intItem], next *int) {
			for k := 0; k < ops; {
				depth := 1 + k%16
				for range depth {
					*next--
					d.Push(intItem(*next))
				}
				for range depth {
					d.Pop()
				}
				k += 2 * depth
			}
		}},
		{"queue", func(d *Ordered[intItem], next *int) {
			for range ops / 2 {
				*next++
				d.Push(intItem(*next))
				d.Pop()
			}
		}},
		{"one-item", func(d *Ordered[intItem], next *int) {
			for range ops / 2 {
				d.Push(intItem(*next))
				d.Pop()
				if c := cap(d.a); d.Len() != 0 || d.lo != c/2 || len(d.a) != c/2 {
					t.Fatalf("emptied deque at [%d, %d) of %d, want the middle", d.lo, len(d.a), c)
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var d Ordered[intItem]
			resident := 0
			if c.name != "one-item" {
				resident = 100
			}
			for i := range resident {
				d.Push(intItem(1_000_000 + i))
			}
			next := 500_000
			peak := resident + 16
			allocs := testing.AllocsPerRun(4, func() { c.run(&d, &next) })
			if allocs != 0 {
				t.Errorf("%.1f allocations per %d operations, want 0", allocs, ops)
			}
			if d.Len() != resident {
				t.Errorf("Len = %d after the run, want %d", d.Len(), resident)
			}
			if cap(d.a) > 2*peak+8 {
				t.Errorf("cap %d, want <= 2*%d + 8", cap(d.a), peak)
			}
		})
	}
}

// stealVictimRef is the steal rule read literally over a snapshot
// indexed by shard (Size 0 for an empty shard): visit the other shards
// round robin from own+1, recompute each candidate's bound by a scan of
// every other shard, accept the first bound within window, else take
// the first shard holding the global minimum.
func stealVictimRef(snap []ShardMin, own, window int) (victim, probes, rejects int) {
	n := len(snap)
	less := func(a, b ShardMin) bool { return ReadyLess(a.Pri, a.Label, b.Pri, b.Label) }
	min := -1
	for j := range snap {
		if snap[j].Size > 0 && (min < 0 || less(snap[j], snap[min])) {
			min = j
		}
	}
	if min < 0 {
		return -1, 0, 0
	}
	for k := 1; k < n; k++ {
		v := (own + k) % n
		if snap[v].Size == 0 {
			continue
		}
		probes++
		bound := 0
		for j := range snap {
			if j != v && snap[j].Size > 0 && less(snap[j], snap[v]) {
				bound += snap[j].Size
			}
		}
		if bound <= window {
			return v, probes, rejects
		}
		rejects++
	}
	return min, probes, rejects
}

// stealCase is one random store: every ready thread's key, by shard.
type stealCase struct {
	shards [][]ShardMin // each thread as a one-entry ShardMin (Size 1)
	own    int
	window int
	stale  bool // some shard publishes a copy of another's minimum
}

// newStealCase draws a store of n shards from seed: labels from a
// random fork tree plus head anchors, mixed priorities, empty shards,
// an own shard that is non-empty half the time (a stale native
// snapshot), and a window from 0 to n+1.
func newStealCase(seed int64, n int) stealCase {
	rng := rand.New(rand.NewSource(seed))
	labels := forkTree(rng, 1+rng.Intn(4*n))
	for a := int64(1); a <= int64(rng.Intn(4)); a++ {
		labels = append(labels, HeadDepaLabel(-a))
	}
	c := stealCase{shards: make([][]ShardMin, n), own: rng.Intn(n), window: rng.Intn(n + 2)}
	empty := make([]bool, n)
	for j := range empty {
		empty[j] = rng.Intn(3) == 0
	}
	empty[c.own] = rng.Intn(2) == 0
	var full []int
	for j := range empty {
		if !empty[j] {
			full = append(full, j)
		}
	}
	if len(full) == 0 {
		return c
	}
	for _, i := range rng.Perm(len(labels)) {
		j := full[rng.Intn(len(full))]
		c.shards[j] = append(c.shards[j], ShardMin{Label: labels[i], Pri: rng.Intn(3), Size: 1, Shard: j})
	}
	c.stale = rng.Intn(4) == 0
	return c
}

// snapshot returns the published minima, indexed by shard.
func (c stealCase) snapshot(rng *rand.Rand) []ShardMin {
	snap := make([]ShardMin, len(c.shards))
	for j, h := range c.shards {
		for _, x := range h {
			if snap[j].Size == 0 || ReadyLess(x.Pri, x.Label, snap[j].Pri, snap[j].Label) {
				snap[j] = x
			}
		}
		snap[j].Size = len(h)
	}
	if c.stale {
		// A minimum seen twice: a thread moved between the two reads.
		a, b := rng.Intn(len(snap)), rng.Intn(len(snap))
		if snap[a].Size > 0 && snap[b].Size > 0 {
			snap[b].Label, snap[b].Pri = snap[a].Label, snap[a].Pri
		}
	}
	return snap
}

// checkSteal compares StealVictim with the reference on one case and
// bounds the victim's true rank.
func checkSteal(t *testing.T, seed int64, n int) {
	t.Helper()
	c := newStealCase(seed, n)
	snap := c.snapshot(rand.New(rand.NewSource(seed)))
	var mins []ShardMin
	for _, j := range rand.New(rand.NewSource(seed)).Perm(n) {
		if snap[j].Size > 0 {
			mins = append(mins, snap[j])
		}
	}
	gv, gp, gr := StealVictim(mins, n, c.own, c.window)
	wv, wp, wr := stealVictimRef(snap, c.own, c.window)
	if gv != wv || gp != wp || gr != wr {
		t.Fatalf("seed %d n %d own %d window %d: StealVictim = (%d, %d, %d), reference (%d, %d, %d)",
			seed, n, c.own, c.window, gv, gp, gr, wv, wp, wr)
	}
	if gv < 0 || c.stale {
		return // a stale snapshot bounds nothing about the true store
	}
	rank := 0
	for _, h := range c.shards {
		for _, x := range h {
			if ReadyLess(x.Pri, x.Label, snap[gv].Pri, snap[gv].Label) {
				rank++
			}
		}
	}
	if rank > c.window {
		t.Fatalf("seed %d n %d: victim %d holds a rank-%d thread, window %d", seed, n, gv, rank, c.window)
	}
}

func TestStealVictimMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		checkSteal(t, seed, 1+int(seed%17))
	}
}

func FuzzStealVictim(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkSteal(t, seed, 1+int(n)%64)
	})
}
