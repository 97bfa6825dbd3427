package main

import "spthreads/pthread"

// quotaK is ADF's default memory quota K, copied (not imported) so the
// gating path uses no name a later PR plans to remove.
const quotaK = int64(128 << 10)

// mix is the splitmix64 finalizer: the one hash every generator here
// derives its choices from.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// treeNode is one thread of the fork/join tree: up to two children and,
// on the alloc workload, the bytes it allocates (size2 > 0 only for the
// "twin" class, which allocates twice).
type treeNode struct {
	left, right int32 // node indices, -1 for none
	size, size2 int32
}

// buildTree lays out an irregular binary tree of exactly n threads in
// preorder. Each node keeps one thread for itself and splits the rest of
// its budget between its children at a fraction in [0.15, 0.85] taken
// from a hash of its path from the root, so shape depends on the seed
// but the thread count does not.
func buildTree(n int, seed uint64, withSizes bool) []treeNode {
	nodes := make([]treeNode, 0, n)
	type frame struct {
		budget int
		hash   uint64
		parent int32
		right  bool
	}
	stack := []frame{{budget: n, hash: mix(seed), parent: -1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := int32(len(nodes))
		nodes = append(nodes, treeNode{left: -1, right: -1})
		if f.parent >= 0 {
			if f.right {
				nodes[f.parent].right = i
			} else {
				nodes[f.parent].left = i
			}
		}
		rest := f.budget - 1
		if withSizes {
			nodes[i].size, nodes[i].size2 = allocSizes(mix(f.hash^0xa110c), rest == 0)
		}
		if rest == 0 {
			continue
		}
		l := rest
		if rest > 1 {
			frac := 0.15 + 0.70*float64(mix(f.hash)>>11)/(1<<53)
			l = min(max(int(frac*float64(rest)), 1), rest-1)
		}
		// Push right first so the left subtree is numbered first.
		if rest-l > 0 {
			stack = append(stack, frame{rest - l, mix(f.hash*2 + 1), i, true})
		}
		stack = append(stack, frame{l, mix(f.hash * 2), i, false})
	}
	return nodes
}

// allocSizes draws one thread's allocation from the alloc workload's
// size mix. Inner nodes, which hold their block while their whole
// subtree runs, draw 64 B–4 KB. Leaves (about half the threads) draw the
// same, except 1/4 at 16–48 KB, 1/32 above K (129–192 KB; dummy threads
// fork before it) and 1/32 twins of two 64–80 KB blocks (no single block
// above K, but the second exhausts the quota, so the thread is preempted
// without dummies). Over all threads that is the issue's mix: most small,
// 1/8 medium, 1/64 above K. Only leaves draw the larger classes: held
// across a subtree, they would make the peak hinge on whether a seed
// happens to stack several on one path, and peak_space_kb must be
// comparable across seeds.
func allocSizes(h uint64, leaf bool) (size, size2 int32) {
	r := h >> 8
	switch c := h % 32; {
	case leaf && c == 0:
		return int32(129<<10 + r%(63<<10)), 0
	case leaf && c == 1:
		return int32(64<<10 + r%(16<<10)), int32(64<<10 + (r>>20)%(16<<10))
	case leaf && c < 10:
		return int32(16<<10 + r%(32<<10)), 0
	default:
		return int32(64 + r%(4<<10-64)), 0
	}
}

// dummiesFor is how many dummy threads ADF forks before an allocation
// of m bytes: ceil(m/K) above K, none otherwise.
func dummiesFor(m int64) int64 {
	if m <= quotaK {
		return 0
	}
	return (m + quotaK - 1) / quotaK
}

// treeProg runs the tree: every node is one thread that (on alloc)
// mallocs, creates its children, joins them, and frees. Bodies are
// otherwise empty; each thread leaves a mark so the run can be checked.
type treeProg struct {
	nodes []treeNode
	alloc bool
	marks []uint32
}

func nodeMark(i int32) uint32 { return uint32(mix(uint64(i))) | 1 }

// expected returns the checksum and thread count a correct run gives.
func (p *treeProg) expected() (sum float64, threads int64) {
	var h uint64
	for i, n := range p.nodes {
		h = h*31 + uint64(nodeMark(int32(i)))
		threads += 1 + dummiesFor(int64(n.size)) + dummiesFor(int64(n.size2))
	}
	return float64(h >> 12), threads
}

// checksum folds and clears the marks of the last run.
func (p *treeProg) checksum() float64 {
	var h uint64
	for i, m := range p.marks {
		h = h*31 + uint64(m)
		p.marks[i] = 0
	}
	return float64(h >> 12)
}

func (p *treeProg) run(t *pthread.T, rec *recorder) {
	if rec != nil {
		p.tracedNode(t, rec, 0, 0)
		return
	}
	p.node(t, 0)
}

func (p *treeProg) node(t *pthread.T, i int32) {
	n := &p.nodes[i]
	var a, a2 pthread.Alloc
	if p.alloc {
		a = t.Malloc(int64(n.size))
		if n.size2 > 0 {
			a2 = t.Malloc(int64(n.size2))
		}
	}
	var l, r *pthread.Thread
	if n.left >= 0 {
		l = t.Create(func(t *pthread.T) { p.node(t, n.left) })
	}
	if n.right >= 0 {
		r = t.Create(func(t *pthread.T) { p.node(t, n.right) })
	}
	if l != nil {
		t.MustJoin(l)
	}
	if r != nil {
		t.MustJoin(r)
	}
	if p.alloc {
		if n.size2 > 0 {
			t.Free(a2)
		}
		t.Free(a)
	}
	p.marks[i] = nodeMark(i)
}

// Span slots of one tree thread.
const (
	slotBody = 1 + iota
	slotCreateL
	slotCreateR
	slotJoinL
	slotJoinR
	slotMalloc
	slotMalloc2
	slotFree
	slotFree2
)

// tracedNode is node with a span around every call into the runtime.
// cause is the id of the create span that forked this thread.
func (p *treeProg) tracedNode(t *pthread.T, rec *recorder, i int32, cause uint64) {
	n := &p.nodes[i]
	me := uint32(i)
	body := rec.now()
	self := spanID(me, slotBody)
	var a, a2 pthread.Alloc
	if p.alloc {
		a = p.tracedMalloc(t, rec, me, slotMalloc, self, int64(n.size), 0)
		if n.size2 > 0 {
			a2 = p.tracedMalloc(t, rec, me, slotMalloc2, self, int64(n.size2), int64(n.size))
		}
	}
	create := func(child int32, slot uint8) *pthread.Thread {
		s := rec.now()
		h := t.Create(func(t *pthread.T) { p.tracedNode(t, rec, child, spanID(me, slot)) })
		rec.add(me, spanCreate, slot, self, s, rec.now())
		return h
	}
	join := func(h *pthread.Thread, slot, created uint8) {
		s := rec.now()
		t.MustJoin(h)
		rec.addJoin(me, slot, created, self, s, rec.now())
	}
	var l, r *pthread.Thread
	if n.left >= 0 {
		l = create(n.left, slotCreateL)
	}
	if n.right >= 0 {
		r = create(n.right, slotCreateR)
	}
	if l != nil {
		join(l, slotJoinL, slotCreateL)
	}
	if r != nil {
		join(r, slotJoinR, slotCreateR)
	}
	if p.alloc {
		free := func(a pthread.Alloc, slot uint8) {
			s := rec.now()
			t.Free(a)
			rec.add(me, spanFree, slot, self, s, rec.now())
		}
		if n.size2 > 0 {
			free(a2, slotFree2)
		}
		free(a, slotFree)
	}
	p.marks[i] = nodeMark(i)
	rec.add(me, spanBody, slotBody, cause, body, rec.now())
}

// tracedMalloc wraps one Malloc and names its span by what the runtime
// must do for it: fork dummies (above K), preempt the thread (the quota
// it was dispatched with is used up), or neither. before is what the
// thread has allocated since it started.
func (p *treeProg) tracedMalloc(t *pthread.T, rec *recorder, me uint32, slot uint8, parent uint64, size, before int64) pthread.Alloc {
	kind := spanMalloc
	switch {
	case size > quotaK:
		kind = spanMallocDummy
	case before+size >= quotaK:
		kind = spanMallocPreempt
	}
	s := rec.now()
	a := t.Malloc(size)
	rec.add(me, kind, slot, parent, s, rec.now())
	return a
}
