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
// does with an indexed binary min-heap over the ready set:
//
//	insertHead / insertBefore   O(1)        (label snapshot)
//	remove                      O(1)        (O(log r) if still ready)
//	setReady                    O(log r)    (heap push / indexed delete)
//	takeLeftmostReady           O(log r)    (heap pop)
//
// with r the number of READY entries — not n, the number of live
// placeholders. Under the paper's workloads r is typically orders of
// magnitude smaller than n (most placeholders are blocked parents or
// executing threads), which is where the dispatch-path win over the
// treap's O(log n) descent comes from.
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
	anchor int64        // next head-insert anchor; decreasing so newer head inserts land leftmost
	heap   []*depaEntry // indexed binary min-heap over ready entries
	nlive  int
}

// depaEntry is a thread's placeholder. hi is the entry's heap index, -1
// while not ready.
type depaEntry struct {
	t     *core.Thread
	label core.DepaLabel
	hi    int
}

// add creates a placeholder for t with the given label snapshot.
func (s *adfDepa) add(t *core.Thread, label core.DepaLabel) {
	t.SchedState = &depaEntry{t: t, label: label, hi: -1}
	s.nlive++
}

func (s *adfDepa) insertHead(t *core.Thread) {
	// A head insert starts a fresh fork tree left of everything already
	// present (the root thread, or a cross-priority fork with no serial
	// anchor in this level). Overwrite the thread's label so its future
	// forks extend the new position.
	t.Order = core.HeadDepaLabel(s.anchor)
	s.anchor--
	s.add(t, t.Order)
}

func (s *adfDepa) insertBefore(child, parent *core.Thread) {
	pe := parent.SchedState.(*depaEntry)
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

func (s *adfDepa) remove(t *core.Thread) {
	e := t.SchedState.(*depaEntry)
	if e.hi >= 0 {
		// Callers clear the ready flag first; keep the heap right
		// regardless, like the treap.
		s.heapRemove(e.hi)
	}
	s.nlive--
}

func (s *adfDepa) setReady(t *core.Thread, ready bool) bool {
	e := t.SchedState.(*depaEntry)
	if (e.hi >= 0) == ready {
		return false
	}
	if ready {
		s.heapPush(e)
	} else {
		s.heapRemove(e.hi)
	}
	return true
}

func (s *adfDepa) readyCount() int { return len(s.heap) }

func (s *adfDepa) takeLeftmostReady() *core.Thread {
	if len(s.heap) == 0 {
		return nil
	}
	return s.heapRemove(0).t
}

func (s *adfDepa) count() int { return s.nlive }

// Heap plumbing: a standard binary min-heap on label order, with each
// entry tracking its slot so blocking an arbitrary ready entry is an
// indexed delete rather than a scan.

func (s *adfDepa) less(i, j int) bool {
	return s.heap[i].label.Compare(s.heap[j].label) < 0
}

func (s *adfDepa) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	h[i].hi = i
	h[j].hi = j
}

func (s *adfDepa) heapPush(e *depaEntry) {
	e.hi = len(s.heap)
	s.heap = append(s.heap, e)
	s.siftUp(e.hi)
}

func (s *adfDepa) heapRemove(i int) *depaEntry {
	e := s.heap[i]
	last := len(s.heap) - 1
	s.swap(i, last)
	s.heap[last] = nil
	s.heap = s.heap[:last]
	e.hi = -1
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	return e
}

func (s *adfDepa) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *adfDepa) siftDown(i int) {
	n := len(s.heap)
	for {
		m := i
		if l := 2*i + 1; l < n && s.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}
