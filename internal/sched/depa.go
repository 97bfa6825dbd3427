package sched

import "spthreads/internal/core"

// adfDepa is the DePa-backed dispatch structure behind the ADF policy.
// Where the treap it replaced maintained the serial depth-first order as
// a shared balanced tree — every insert, ready flip, and dispatch pays an
// O(log n) walk under the charged scheduler lock — the DePa scheme
// moves the order into the threads themselves: each thread carries a
// fork-path label (core.DepaLabel) assigned at fork time on the forking
// thread's own context, and left-of is a local lexicographic compare.
//
// The store then only has to answer "leftmost READY entry", which it
// does with a core.Ordered deque over the ready set, sorted in the
// ready order both backends share (core.ReadyLess):
//
//	insertHead / insertBefore   O(1)        (label snapshot)
//	remove                      O(1)
//	setReady                    O(1) at either end, else O(log r)
//	takeLeftmostReady           O(1)        (no compare)
//
// with r the number of READY entries — not n, the number of live
// placeholders. A preempted parent is left of every other ready entry,
// so its setReady is a push at the front with one compare; a push
// elsewhere binary-searches its slot (O(log r) compares) and shifts the
// shorter side. Under the paper's workloads r is typically orders of
// magnitude smaller than n (most placeholders are blocked parents or
// executing threads), which is where the dispatch-path win over the
// treap's O(log n) descent comes from. An entry leaves the deque only by
// dispatch: the machine blocks and exits only running threads, whose
// entries are not ready.
//
// Entries snapshot the thread's label at insert time. The thread's own
// label keeps evolving (each fork appends a continuation bit), but an
// extension orders immediately left of its snapshot and right of every
// previously forked child, so the snapshot order is at all times
// identical to the linked list the seed maintained: this is pinned by
// the three-way differential suite in depa_diff_test.go. Placeholders
// that are not ready live only in their threads' SchedState; the store
// keeps just their count.
type adfDepa struct {
	placeholders
	ready core.Ordered[*readyEntry]
}

// readyEntry is a thread's placeholder in adf's levels and adf-shard's
// shards: its label snapshot and priority, its place in the ready order.
type readyEntry struct {
	t     *core.Thread
	label core.DepaLabel
	pri   int32
	ready bool
}

func (e *readyEntry) Before(o *readyEntry) bool {
	return core.ReadyLess(int(e.pri), e.label, int(o.pri), o.label)
}

// placeholders labels and counts the entries of one order: a level of
// adf, or all of adf-shard's shards.
type placeholders struct {
	anchor int64 // next head-insert anchor; decreasing so newer head inserts land leftmost
	nlive  int
	free   []*readyEntry // entries of exited threads, for reuse by add
}

// add creates a placeholder for t with the given label snapshot, reusing
// the entry of an exited thread when one is free.
func (s *placeholders) add(t *core.Thread, label core.DepaLabel) {
	var e *readyEntry
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = new(readyEntry)
	}
	*e = readyEntry{t: t, label: label, pri: int32(t.Priority)}
	t.SchedState = e
	s.nlive++
}

func (s *placeholders) insertHead(t *core.Thread) {
	// A head insert starts a fresh fork tree left of everything already
	// present (the root thread, or a cross-priority fork with no serial
	// anchor in this level). Overwrite the thread's label so its future
	// forks extend the new position.
	t.Order = core.HeadDepaLabel(s.anchor)
	s.anchor--
	s.add(t, t.Order)
}

func (s *placeholders) insertBefore(child, parent *core.Thread) {
	pe := parent.SchedState.(*readyEntry)
	if !child.Order.Valid() {
		// The runtime labels children on the fork path; policy-level
		// harnesses drive OnCreate directly, so derive the label here
		// from the parent's evolving label.
		child.Order = parent.Order.Fork()
	}
	if child.Order.Compare(pe.label) >= 0 {
		panic("sched: depa child label not left of parent placeholder")
	}
	s.add(child, child.Order)
}

// remove deletes t's placeholder; t must not be ready. Its entry goes
// to the free list, so the caller drops t.SchedState.
func (s *placeholders) remove(t *core.Thread) {
	e := t.SchedState.(*readyEntry)
	if e.ready {
		panic("sched: removing a ready placeholder")
	}
	s.free = append(s.free, e)
	s.nlive--
}

func (s *placeholders) count() int { return s.nlive }

func (s *adfDepa) setReady(t *core.Thread) bool {
	e := t.SchedState.(*readyEntry)
	if e.ready {
		return false
	}
	e.ready = true
	s.ready.Push(e)
	return true
}

func (s *adfDepa) readyCount() int { return s.ready.Len() }

func (s *adfDepa) takeLeftmostReady() *core.Thread {
	if s.ready.Len() == 0 {
		return nil
	}
	e := s.ready.Pop()
	e.ready = false
	return e.t
}
