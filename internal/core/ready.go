package core

import "slices"

// The ready order and the steal rule, written once for both backends:
// the sim's adf and adf-shard policies and the native shard store keep
// their ready threads in Heaps ordered by ReadyLess, and a thief of
// either backend picks its victim with StealVictim.

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

// Heap is a binary min-heap under its elements' Before order. It is a
// plain slice, so len(h) is its size and h[0] its minimum.
type Heap[E interface{ Before(E) bool }] []E

// Push adds e and reports whether e became the minimum.
func (h *Heap[E]) Push(e E) bool {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if !a[i].Before(a[up]) {
			return false
		}
		a[i], a[up] = a[up], a[i]
		i = up
	}
	return true
}

// Pop removes and returns the minimum. h must not be empty.
func (h *Heap[E]) Pop() E {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	var zero E
	a[last] = zero // drop the reference
	a = a[:last]
	*h = a
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && a[l].Before(a[m]) {
			m = l
		}
		if r := 2*i + 2; r < last && a[r].Before(a[m]) {
			m = r
		}
		if m == i {
			return top
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
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
