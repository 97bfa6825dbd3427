package memsim

// TLB models a fully associative, LRU translation lookaside buffer for
// one simulated processor. The UltraSPARC-I data TLB held 64 entries.
type TLB struct {
	cap   int
	nodes map[int64]*tlbNode
	head  *tlbNode // most recently used
	tail  *tlbNode // least recently used
}

type tlbNode struct {
	page       int64
	prev, next *tlbNode
}

// DefaultTLBEntries is the modeled TLB capacity.
const DefaultTLBEntries = 64

// NewTLB creates a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	return &TLB{cap: entries, nodes: make(map[int64]*tlbNode, entries)}
}

// Access looks up a page, reporting whether it hit, and updates recency
// (inserting the page and evicting the LRU entry on a miss).
func (t *TLB) Access(page int64) bool {
	if n, ok := t.nodes[page]; ok {
		t.moveToFront(n)
		return true
	}
	n := &tlbNode{page: page}
	t.nodes[page] = n
	t.pushFront(n)
	if len(t.nodes) > t.cap {
		lru := t.tail
		t.unlink(lru)
		delete(t.nodes, lru.page)
	}
	return false
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return len(t.nodes) }

func (t *TLB) pushFront(n *tlbNode) {
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

func (t *TLB) unlink(n *tlbNode) {
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

func (t *TLB) moveToFront(n *tlbNode) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}
