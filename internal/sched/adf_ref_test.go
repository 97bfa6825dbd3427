package sched

import "spthreads/internal/core"

// The seed's ADF policy, kept as a test-only reference: a shell of
// per-priority placeholder lists behind the refLevel seam, over which
// the tests run the seed's scanning linked list (adfChain) and the
// order-statistic treap that preceded the DePa labels (adf_treap_test.go).
// Every created-but-not-exited thread keeps an entry in its level's
// serial depth-first order; a forked child's entry goes immediately left
// of its parent's, a root's or cross-priority child's leftmost, and Next
// takes the leftmost ready entry of the highest non-empty level. The
// production store (orderedPolicy) keeps no entries at all, so the
// differential suites pin that its labels reproduce this order.
type refADF struct {
	name     string
	levels   [core.NumPriorities]refLevel // built on a priority's first use
	newLevel func() refLevel
	ready    int // ready entries across all levels
	live     int // entries across all levels
}

// refLevel is one priority level's ordered placeholder list.
type refLevel interface {
	// insertHead places t leftmost (earliest in serial order).
	insertHead(t *core.Thread)
	// insertBefore places child immediately left of parent's entry.
	insertBefore(child, parent *core.Thread)
	// remove deletes t's entry.
	remove(t *core.Thread)
	// setReady marks t ready, reporting whether it was not.
	setReady(t *core.Thread) bool
	// readyCount returns the number of ready entries.
	readyCount() int
	// takeLeftmostReady clears and returns the leftmost ready entry's
	// thread, or nil if none is ready.
	takeLeftmostReady() *core.Thread
	// count returns the number of entries.
	count() int
}

// NewADFReference builds the reference ADF policy over the linked list.
// It dispatches the exact same thread sequence as adf; it is exported
// for the machine-level tests of package sched_test.
func NewADFReference() core.Policy {
	return &refADF{name: "adf-ref", newLevel: func() refLevel {
		return &adfChain{entries: map[*core.Thread]*chainEntry{}}
	}}
}

func (p *refADF) Name() string { return p.name }
func (p *refADF) Global() bool { return true }

// level returns t's priority level, building it on first use.
func (p *refADF) level(t *core.Thread) refLevel {
	l := p.levels[t.Priority]
	if l == nil {
		l = p.newLevel()
		p.levels[t.Priority] = l
	}
	return l
}

func (p *refADF) OnCreate(parent, child *core.Thread) bool {
	p.live++
	l := p.level(child)
	if parent == nil {
		l.insertHead(child)
		l.setReady(child)
		p.ready++
		return false
	}
	if parent.Priority == child.Priority {
		l.insertBefore(child, parent)
	} else {
		l.insertHead(child)
	}
	return true
}

func (p *refADF) OnReady(t *core.Thread, pid int) {
	if p.level(t).setReady(t) {
		p.ready++
	}
}

func (p *refADF) OnBlock(t *core.Thread) {}

func (p *refADF) OnExit(t *core.Thread) {
	p.level(t).remove(t)
	p.live--
}

func (p *refADF) Next(pid int) *core.Thread {
	for pri := core.NumPriorities - 1; pri >= 0 && p.ready > 0; pri-- {
		if l := p.levels[pri]; l != nil && l.readyCount() > 0 {
			p.ready--
			return l.takeLeftmostReady()
		}
	}
	return nil
}

// Live returns the number of entries across all levels.
func (p *refADF) Live() int { return p.live }

// ReadyCount returns the number of ready entries across all levels.
func (p *refADF) ReadyCount() int { return p.ready }

// adfChain is the seed implementation's ordered doubly-linked list,
// retained verbatim in behaviour as the reference store: insert and
// remove are O(1), but finding the leftmost ready entry scans from the
// head — O(n) per dispatch.
type adfChain struct {
	head, tail *chainEntry
	ready      int
	entries    map[*core.Thread]*chainEntry
}

// chainEntry is a thread's placeholder in the ordered list.
type chainEntry struct {
	t          *core.Thread
	prev, next *chainEntry
	ready      bool
}

func (l *adfChain) insertHead(t *core.Thread) {
	e := &chainEntry{t: t}
	l.entries[t] = e
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
	at := l.entries[parent]
	e := &chainEntry{t: child}
	l.entries[child] = e
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
	e := l.entries[t]
	delete(l.entries, t)
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
	e := l.entries[t]
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
