package core

import (
	"math"

	"spthreads/internal/vtime"
)

// infTime marks an absent processor slot in a clock tree.
const infTime = vtime.Time(math.MaxInt64)

// clockTree is a tournament (complete binary min-) tree over the fixed
// processor id range, keyed by virtual clock. Leaves are processor
// slots (absent processors hold +inf); each internal node holds the
// minimum of its children. Updates walk one leaf-to-root path and the
// scheduler's selection queries descend one root-to-leaf path, so
// both cost O(log p) instead of the seed's O(p) scan over all
// processors on every scheduling step.
type clockTree struct {
	leaves int          // leaf capacity, a power of two
	node   []vtime.Time // 1-based; node[1] is the root
}

func newClockTree(procs int) *clockTree {
	n := 1
	for n < procs {
		n <<= 1
	}
	t := &clockTree{leaves: n, node: make([]vtime.Time, 2*n)}
	for i := range t.node {
		t.node[i] = infTime
	}
	return t
}

// set writes the leaf for processor id and fixes the path to the root.
func (t *clockTree) set(id int, v vtime.Time) {
	i := t.leaves + id
	t.node[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		m := t.node[2*i]
		if r := t.node[2*i+1]; r < m {
			m = r
		}
		t.node[i] = m
	}
}

// min returns the smallest clock in the tree (infTime when empty).
func (t *clockTree) min() vtime.Time { return t.node[1] }

// leftmostLeq returns the smallest processor id whose clock is at most
// bound, or -1 if none. Descending toward the leftmost qualifying leaf
// reproduces the seed scan's ascending-id tie-break exactly.
func (t *clockTree) leftmostLeq(bound vtime.Time) int {
	if t.node[1] > bound {
		return -1
	}
	i := 1
	for i < t.leaves {
		if t.node[2*i] <= bound {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return i - t.leaves
}

// minProc returns the smallest processor id holding the tree minimum,
// or -1 when the tree is empty.
func (t *clockTree) minProc() int {
	m := t.node[1]
	if m == infTime {
		return -1
	}
	return t.leftmostLeq(m)
}

// clockIndex tracks every processor's clock in exactly one of two
// trees — busy (a thread is assigned) or idle — mirroring the two cases
// of the scheduler's processor selection. The machine updates it
// eagerly on every clock advance and cur transition, so minimum-clock
// and best-processor queries are exact at any point in a step.
type clockIndex struct {
	busy, idle *clockTree
	isBusy     []bool
}

func newClockIndex(procs int) *clockIndex {
	ci := &clockIndex{
		busy:   newClockTree(procs),
		idle:   newClockTree(procs),
		isBusy: make([]bool, procs),
	}
	for i := 0; i < procs; i++ {
		ci.idle.set(i, 0)
	}
	return ci
}

// update records a clock change for processor id in its current tree.
func (ci *clockIndex) update(id int, clock vtime.Time) {
	if ci.isBusy[id] {
		ci.busy.set(id, clock)
	} else {
		ci.idle.set(id, clock)
	}
}

// setBusy moves processor id between the busy and idle trees.
func (ci *clockIndex) setBusy(id int, busy bool, clock vtime.Time) {
	if ci.isBusy[id] == busy {
		ci.update(id, clock)
		return
	}
	ci.isBusy[id] = busy
	if busy {
		ci.idle.set(id, infTime)
		ci.busy.set(id, clock)
	} else {
		ci.busy.set(id, infTime)
		ci.idle.set(id, clock)
	}
}

// min returns the smallest clock across all processors.
func (ci *clockIndex) min() vtime.Time {
	m := ci.busy.min()
	if i := ci.idle.min(); i < m {
		m = i
	}
	return m
}
