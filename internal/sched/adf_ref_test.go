package sched

import "spthreads/internal/core"

// adfChain is the seed implementation's ordered doubly-linked list,
// retained verbatim in behaviour as the reference store for the ADF
// policy: insert and remove are O(1), but finding the leftmost ready
// entry scans from the head — O(n) per dispatch. The differential
// tests drive it, the treap and the DePa store through identical
// operation sequences and require identical answers.
type adfChain struct {
	head, tail *chainEntry
	ready      int
}

// NewADFReference builds the ADF policy over the linked list. It
// dispatches the exact same thread sequence as the DePa store; it is
// exported for the machine-level tests of package sched_test.
func NewADFReference() core.Policy {
	return &adfPolicy{name: "adf-ref", newLevel: func() adfLevel { return &adfChain{} }}
}

// chainEntry is a thread's placeholder in the ordered list.
type chainEntry struct {
	t          *core.Thread
	prev, next *chainEntry
	ready      bool
}

func (l *adfChain) insertHead(t *core.Thread) {
	e := &chainEntry{t: t}
	t.SchedState = e
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *adfChain) insertBefore(child, parent *core.Thread) {
	at := parent.SchedState.(*chainEntry)
	e := &chainEntry{t: child}
	child.SchedState = e
	e.prev = at.prev
	e.next = at
	if at.prev != nil {
		at.prev.next = e
	} else {
		l.head = e
	}
	at.prev = e
}

func (l *adfChain) remove(t *core.Thread) {
	e := t.SchedState.(*chainEntry)
	if e.ready {
		e.ready = false
		l.ready--
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *adfChain) setReady(t *core.Thread) bool {
	e := t.SchedState.(*chainEntry)
	if e.ready {
		return false
	}
	e.ready = true
	l.ready++
	return true
}

func (l *adfChain) readyCount() int { return l.ready }

func (l *adfChain) takeLeftmostReady() *core.Thread {
	for e := l.head; e != nil; e = e.next {
		if e.ready {
			e.ready = false
			l.ready--
			return e.t
		}
	}
	return nil
}

func (l *adfChain) count() int {
	n := 0
	for e := l.head; e != nil; e = e.next {
		n++
	}
	return n
}
