package core

import "slices"

// The ready order, its store and the steal rule, written once for both
// backends: the sim's fifo, lifo, adf and adf-shard policies and the
// native shard store keep their ready threads in Ordered deques sorted
// by ReadyLess (Thread.Before), and a thief of either backend picks its
// victim with StealVictim.

// ReadyLess is the ready order: higher priority first, then the
// leftmost DePa label (the serial depth-first order). Labels are unique
// per thread, so it orders any two ready threads.
func ReadyLess(pa int, la DepaLabel, pb int, lb DepaLabel) bool {
	return readyCompare(pa, la, pb, lb) < 0
}

func readyCompare(pa int, la DepaLabel, pb int, lb DepaLabel) int {
	if pa != pb {
		return pb - pa // priorities are below NumPriorities: no overflow
	}
	return la.Compare(lb)
}

// Ordered is a sorted deque under its elements' Before order: the
// items sit sorted in the window a[lo:] of one slice, minimum first,
// and every slot outside it holds the zero E. ADF pushes a preempted
// parent left of every other ready thread and pops the leftmost, FIFO
// and LIFO keys rise and fall with every push, and the sim's ready
// times arrive mostly in rising order, so nearly every push lands at an
// end: O(1) amortized with one or two compares. Any
// other push binary-searches its slot and shifts the shorter side; a
// pop compares nothing. The zero value is empty.
type Ordered[E interface{ Before(E) bool }] struct {
	a  []E
	lo int
}

// Len is the number of items.
func (d *Ordered[E]) Len() int { return len(d.a) - d.lo }

// Min is the minimum. d must not be empty.
func (d *Ordered[E]) Min() E { return d.a[d.lo] }

// Items is the items in order, a view valid until the next Push or Pop.
func (d *Ordered[E]) Items() []E { return d.a[d.lo:] }

// Push adds e and reports whether e became the minimum: the deque was
// empty or e is strictly before its old minimum.
func (d *Ordered[E]) Push(e E) bool {
	if d.lo == 0 || len(d.a) == cap(d.a) {
		d.room()
	}
	hi := len(d.a)
	if hi == d.lo || e.Before(d.a[d.lo]) {
		d.lo--
		d.a[d.lo] = e
		return true
	}
	if !e.Before(d.a[hi-1]) {
		d.a = append(d.a, e)
		return false
	}
	// a[lo] <= e < a[hi-1]: e goes before the first a[i] after it.
	i, j := d.lo+1, hi-1
	for i < j {
		if m := int(uint(i+j) >> 1); e.Before(d.a[m]) {
			j = m
		} else {
			i = m + 1
		}
	}
	if i-d.lo < hi-i {
		copy(d.a[d.lo-1:], d.a[d.lo:i])
		d.lo, i = d.lo-1, i-1
	} else {
		d.a = d.a[:hi+1]
		copy(d.a[i+1:], d.a[i:hi])
	}
	d.a[i] = e
	return false
}

// Pop removes and returns the minimum. d must not be empty. An emptied
// deque restarts in the middle of its array.
func (d *Ordered[E]) Pop() E {
	e := d.a[d.lo]
	var zero E
	d.a[d.lo] = zero // drop the reference
	if d.lo++; d.lo == len(d.a) {
		d.lo = cap(d.a) / 2
		d.a = d.a[:d.lo]
	}
	return e
}

// room centres the window in its array, or in a new one of 2n+8 slots
// when less than half of the old one would be free. Each end then has
// about a quarter of the array free, so its copying and zeroing cost O(1)
// amortized per push, and the array stays within twice the peak plus 8.
func (d *Ordered[E]) room() {
	n := d.Len()
	a := d.a[:cap(d.a)]
	if len(a) == 0 || 2*n > len(a) {
		a = make([]E, 2*n+8)
	}
	lo := (len(a) - n) / 2
	copy(a[lo:], d.a[d.lo:])
	clear(a[:lo])
	clear(a[lo+n:])
	d.a, d.lo = a[:lo+n], lo
}

// ShardMin is one non-empty ready shard as a thief sees it: the
// priority and label of its leftmost thread, its size, and its index.
type ShardMin struct {
	Label DepaLabel
	Pri   int
	Size  int
	Shard int
}

// StealVictim is the bounded-deviation steal rule. The thief owns shard
// own of n, and mins lists the non-empty shards in any order (on native
// a racy snapshot, so it may list own); StealVictim sorts it in place
// and allocates nothing.
//
// A candidate's deviation bound is the total size of the shards whose
// leftmost precedes the candidate's: every ready thread ahead of it in
// the ready order lives in one of them, so the bound over-estimates its
// true rank. The thief visits the other shards round robin from own+1
// and takes the first whose bound is at most window; probes counts the
// shards it examined and rejects those it turned down. If none passes,
// the victim is the shard holding the global minimum, whose bound is 0,
// so a steal always makes progress. victim is -1 when mins is empty.
func StealVictim(mins []ShardMin, n, own, window int) (victim, probes, rejects int) {
	if len(mins) == 0 {
		return -1, 0, 0
	}
	slices.SortFunc(mins, func(a, b ShardMin) int {
		return readyCompare(a.Pri, a.Label, b.Pri, b.Label)
	})
	// Bounds rise along the sorted order, so the shards within the window
	// are a prefix of it, ending at mins[last]. Shards with equal minima
	// (possible only in a stale snapshot) share a bound.
	last, bound, sum := 0, 0, 0
	for i, m := range mins {
		if i > 0 && readyCompare(mins[i-1].Pri, mins[i-1].Label, m.Pri, m.Label) != 0 {
			bound = sum
		}
		if bound > window {
			break
		}
		last = i
		sum += m.Size
	}
	// The victim is the accepted shard the thief reaches first; every
	// non-empty shard it passes on the way is a rejected probe.
	dist := func(s int) int { return (s - own - 1 + n) % n } // own is n-1
	victim, far := mins[0].Shard, n-1
	for _, m := range mins[:last+1] {
		if d := dist(m.Shard); d < far {
			victim, far = m.Shard, d
		}
	}
	for _, m := range mins {
		if d := dist(m.Shard); d < far {
			rejects++
		}
	}
	probes = rejects
	if far < n-1 {
		probes++
	}
	return victim, probes, rejects
}
