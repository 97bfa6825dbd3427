package sched

import "spthreads/internal/core"

// adfTreap is the production ADF store before the DePa labels, kept
// as a differential-test oracle behind the adfLevel seam: a treap whose
// in-order traversal is the serial depth-first order of the placeholder
// entries, with each node carrying the count of ready
// entries in its subtree. There are no search keys — positions are
// defined purely by where entries are spliced in (leftmost, or
// immediately left of the parent's entry), exactly like the original
// linked list — so rotations never compare threads, only the random
// heap priorities that keep the tree balanced in expectation.
//
// Costs, with n live placeholders in the level:
//
//	insertHead / insertBefore   O(log n) expected (splice + rotate up)
//	remove                      O(log n) expected (rotate down to leaf)
//	setReady                    O(log n) expected (count path to root)
//	takeLeftmostReady           O(log n) expected (guided descent)
//
// The seed implementation's leftmost-ready linear scan made every
// dispatch O(n); with thousands of live placeholders (fine-grained
// fork trees under memory throttling) scheduler overhead was quadratic
// in thread count. The ready counts let the descent skip entire
// subtrees with no ready entry; the differential suite pins that the
// dispatch sequence is identical to the scanning list's.
type adfTreap struct {
	root *treapEntry
	rng  *treapRand
}

// newADFTreap builds the ADF policy over the treap. It dispatches the
// exact same thread sequence as the DePa store.
func newADFTreap() *adfPolicy {
	rng := newTreapRand()
	return &adfPolicy{name: "adf-treap", newLevel: func() adfLevel { return &adfTreap{rng: rng} }}
}

// treapEntry is a thread's placeholder node. nReady counts ready
// entries in the subtree rooted here, including the node itself.
type treapEntry struct {
	t                   *core.Thread
	parent, left, right *treapEntry
	hprio               uint64
	ready               bool
	nReady              int32
}

// treapRand is a deterministic xorshift64 source for heap priorities.
// The priorities only shape the host-side tree; scheduling decisions
// never observe them, so any fixed seed preserves virtual-time results.
type treapRand struct{ s uint64 }

func newTreapRand() *treapRand { return &treapRand{s: 0x9E3779B97F4A7C15} }

func (r *treapRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (tr *adfTreap) newEntry(t *core.Thread) *treapEntry {
	e := &treapEntry{t: t, hprio: tr.rng.next()}
	t.SchedState = e
	return e
}

func (tr *adfTreap) insertHead(t *core.Thread) {
	e := tr.newEntry(t)
	if tr.root == nil {
		tr.root = e
		return
	}
	n := tr.root
	for n.left != nil {
		n = n.left
	}
	n.left = e
	e.parent = n
	tr.bubbleUp(e)
}

func (tr *adfTreap) insertBefore(child, parent *core.Thread) {
	at := parent.SchedState.(*treapEntry)
	e := tr.newEntry(child)
	// The position immediately left of at is at.left's rightmost slot.
	if at.left == nil {
		at.left = e
		e.parent = at
	} else {
		n := at.left
		for n.right != nil {
			n = n.right
		}
		n.right = e
		e.parent = n
	}
	tr.bubbleUp(e)
}

func (tr *adfTreap) remove(t *core.Thread) {
	e := t.SchedState.(*treapEntry)
	if e.ready {
		// Callers clear the flag first; keep the counts right regardless.
		tr.flipReady(e, false)
	}
	// Rotate e down to a leaf, always lifting the child with the smaller
	// heap priority so the heap order among the others is preserved.
	for e.left != nil || e.right != nil {
		if e.right == nil || (e.left != nil && e.left.hprio < e.right.hprio) {
			tr.rotateUp(e.left)
		} else {
			tr.rotateUp(e.right)
		}
	}
	// A not-ready leaf contributes nothing to ancestor counts.
	switch p := e.parent; {
	case p == nil:
		tr.root = nil
	case p.left == e:
		p.left = nil
	default:
		p.right = nil
	}
	e.parent = nil
}

func (tr *adfTreap) setReady(t *core.Thread) bool {
	e := t.SchedState.(*treapEntry)
	if e.ready {
		return false
	}
	tr.flipReady(e, true)
	return true
}

func (tr *adfTreap) flipReady(e *treapEntry, ready bool) {
	e.ready = ready
	d := int32(1)
	if !ready {
		d = -1
	}
	for n := e; n != nil; n = n.parent {
		n.nReady += d
	}
}

func (tr *adfTreap) readyCount() int {
	if tr.root == nil {
		return 0
	}
	return int(tr.root.nReady)
}

func (tr *adfTreap) takeLeftmostReady() *core.Thread {
	n := tr.root
	if n == nil || n.nReady == 0 {
		return nil
	}
	// Invariant: the current subtree holds at least one ready entry. The
	// leftmost one is in the left subtree if that has any, else it is
	// this node if flagged, else it is in the right subtree.
	for {
		if n.left != nil && n.left.nReady > 0 {
			n = n.left
			continue
		}
		if n.ready {
			break
		}
		n = n.right
	}
	tr.flipReady(n, false)
	return n.t
}

func (tr *adfTreap) count() int {
	var walk func(*treapEntry) int
	walk = func(e *treapEntry) int {
		if e == nil {
			return 0
		}
		return 1 + walk(e.left) + walk(e.right)
	}
	return walk(tr.root)
}

// bubbleUp restores the heap order after splicing e in as a leaf.
func (tr *adfTreap) bubbleUp(e *treapEntry) {
	for e.parent != nil && e.hprio < e.parent.hprio {
		tr.rotateUp(e)
	}
}

// rotateUp rotates e above its parent, preserving the in-order sequence
// and recomputing the two touched ready counts.
func (tr *adfTreap) rotateUp(e *treapEntry) {
	p := e.parent
	g := p.parent
	if p.left == e {
		p.left = e.right
		if e.right != nil {
			e.right.parent = p
		}
		e.right = p
	} else {
		p.right = e.left
		if e.left != nil {
			e.left.parent = p
		}
		e.left = p
	}
	p.parent = e
	e.parent = g
	switch {
	case g == nil:
		tr.root = e
	case g.left == p:
		g.left = e
	default:
		g.right = e
	}
	p.recount()
	e.recount()
}

func (e *treapEntry) recount() {
	c := int32(0)
	if e.ready {
		c = 1
	}
	if e.left != nil {
		c += e.left.nReady
	}
	if e.right != nil {
		c += e.right.nReady
	}
	e.nReady = c
}
