package memsim_test

// refTLB is the map-plus-linked-list LRU the array TLB replaced, kept
// as the oracle FuzzTLB checks it against.

import (
	"math/rand"
	"testing"

	"spthreads/internal/memsim"
)

type refTLB struct {
	cap   int
	nodes map[int64]*refNode
	head  *refNode // most recently used
	tail  *refNode // least recently used
}

type refNode struct {
	page       int64
	prev, next *refNode
}

func newRefTLB(entries int) *refTLB {
	return &refTLB{cap: entries, nodes: make(map[int64]*refNode, entries)}
}

func (t *refTLB) Access(page int64) bool {
	if n, ok := t.nodes[page]; ok {
		t.moveToFront(n)
		return true
	}
	n := &refNode{page: page}
	t.nodes[page] = n
	t.pushFront(n)
	if len(t.nodes) > t.cap {
		lru := t.tail
		t.unlink(lru)
		delete(t.nodes, lru.page)
	}
	return false
}

func (t *refTLB) Len() int { return len(t.nodes) }

func (t *refTLB) pushFront(n *refNode) {
	n.prev = nil
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

func (t *refTLB) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *refTLB) moveToFront(n *refNode) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}

// checkTLB drives both TLBs with a seeded page stream over about twice
// capacity distinct pages, with runs that revisit recent pages, and
// fails on the first access whose hit/miss or Len differs.
func checkTLB(t *testing.T, seed int64, capacity int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, want := memsim.NewTLB(capacity), newRefTLB(capacity)
	span := int64(2*capacity + 1 + rng.Intn(2*capacity+1))
	var page int64
	for i := 0; i < 4000; i++ {
		if rng.Intn(3) == 0 {
			page = rng.Int63n(span)
		} else {
			page = (page + int64(rng.Intn(3)) - 1 + span) % span
		}
		if g, w := got.Access(page), want.Access(page); g != w {
			t.Fatalf("seed %d, cap %d, access %d (page %d): hit %v, oracle %v", seed, capacity, i, page, g, w)
		}
		if g, w := got.Len(), want.Len(); g != w {
			t.Fatalf("seed %d, cap %d, access %d: Len %d, oracle %d", seed, capacity, i, g, w)
		}
	}
}

func TestTLBMatchesReference(t *testing.T) {
	for capacity := 1; capacity <= 64; capacity++ {
		checkTLB(t, int64(capacity), capacity)
	}
}

func FuzzTLB(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(3))
	f.Add(int64(42), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, c uint8) {
		checkTLB(t, seed, 1+int(c)%64)
	})
}
