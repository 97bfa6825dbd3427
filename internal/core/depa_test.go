package core

// Property tests for the DePa label algebra itself, independent of any
// scheduler store: Compare is a strict total order over distinct
// labels, forks order child-before-continuation and earlier-child
// before-later-child, established comparisons are stable as lineages
// keep forking (labels are immutable snapshots), and label size grows
// exactly one bit per fork.

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// forkTree grows a random fork tree: each step forks a child from a
// random live lineage. It returns the creation-time snapshot of every
// label in creation order; all snapshots denote distinct serial
// positions.
func forkTree(rng *rand.Rand, n int) []DepaLabel {
	root := RootDepaLabel()
	lineages := []*DepaLabel{&root}
	labels := []DepaLabel{root}
	for len(labels) < n {
		p := lineages[rng.Intn(len(lineages))]
		child := p.Fork()
		labels = append(labels, child)
		c := child
		lineages = append(lineages, &c)
	}
	return labels
}

func TestDepaTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	labels := forkTree(rng, 4000)

	// Reflexivity of equality: a label equals itself and its value copy.
	for _, k := range []int{0, 1, len(labels) / 2, len(labels) - 1} {
		cp := labels[k]
		if c := labels[k].Compare(cp); c != 0 {
			t.Fatalf("label %d: Compare with own copy = %d, want 0", k, c)
		}
	}

	// Totality and antisymmetry on random pairs: distinct labels compare
	// strictly, and in opposite directions when swapped.
	for trial := 0; trial < 200000; trial++ {
		i, j := rng.Intn(len(labels)), rng.Intn(len(labels))
		if i == j {
			continue
		}
		c1, c2 := labels[i].Compare(labels[j]), labels[j].Compare(labels[i])
		if c1 == 0 || c2 == 0 {
			t.Fatalf("distinct labels %d,%d compare equal", i, j)
		}
		if c1 != -c2 {
			t.Fatalf("antisymmetry broken for %d,%d: %d vs %d", i, j, c1, c2)
		}
	}

	// Transitivity: sort by Compare, then every sampled i<j<k triple
	// must agree with the sorted positions, including the long-range
	// pair the sort never compared directly.
	sorted := append([]DepaLabel(nil), labels...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Compare(sorted[b]) < 0 })
	for k := 1; k < len(sorted); k++ {
		if sorted[k-1].Compare(sorted[k]) >= 0 {
			t.Fatalf("sorted order broken at %d", k)
		}
	}
	for trial := 0; trial < 100000; trial++ {
		i := rng.Intn(len(sorted) - 2)
		j := i + 1 + rng.Intn(len(sorted)-i-2)
		k := j + 1 + rng.Intn(len(sorted)-j-1)
		if sorted[i].Compare(sorted[k]) != -1 {
			t.Fatalf("transitivity broken: sorted[%d] not left of sorted[%d]", i, k)
		}
	}
}

// TestDepaForkOrder pins the fork-local ordering rules: every child is
// left of the parent's entry snapshot, and an earlier-forked child is
// left of every later-forked one (fork-left < fork-right).
func TestDepaForkOrder(t *testing.T) {
	parent := RootDepaLabel()
	entry := parent // the store's insert-time snapshot
	var kids []DepaLabel
	var snaps []DepaLabel
	for i := 0; i < 300; i++ {
		kids = append(kids, parent.Fork())
		snaps = append(snaps, parent) // parent's evolving label after the fork
	}
	for i, kid := range kids {
		if kid.Compare(entry) != -1 {
			t.Fatalf("child %d not left of parent entry snapshot", i)
		}
		for j := i + 1; j < len(kids); j++ {
			if kids[i].Compare(kids[j]) != -1 {
				t.Fatalf("fork-left < fork-right broken for children %d,%d", i, j)
			}
		}
		// Every child is left of every parent snapshot taken at or
		// after its own fork (the snapshots all denote the same entry).
		for j := i; j < len(snaps); j++ {
			if kid.Compare(snaps[j]) != -1 {
				t.Fatalf("child %d not left of parent snapshot %d", i, j)
			}
		}
	}
}

// TestDepaPrefixStability builds deep and skewed trees — a spine of
// depth 10^3 and a 10^5-label mixed tree — and checks that established
// comparisons hold across chunk boundaries and as lineages keep
// forking.
func TestDepaPrefixStability(t *testing.T) {
	// Deep chain: thread i+1 is the child of thread i. Descendants
	// precede their ancestors' continuations, so the chain is ordered
	// deepest-first.
	const depth = 1000
	chain := make([]DepaLabel, depth+1)
	chain[0] = RootDepaLabel()
	lineage := chain[0]
	for i := 1; i <= depth; i++ {
		chain[i] = lineage.Fork()
		lineage = chain[i] // descend: the child forks next
	}
	for i := 0; i < depth; i++ {
		if chain[i+1].Compare(chain[i]) != -1 {
			t.Fatalf("depth %d: child not left of parent", i)
		}
	}
	if chain[depth].Compare(chain[0]) != -1 {
		t.Fatalf("deepest descendant not left of root")
	}
	if got := chain[depth].Depth(); got != depth {
		t.Fatalf("deepest label Depth = %d, want %d", got, depth)
	}

	// Skewed: one lineage forks 10^3 children; each comparison crosses
	// many chunk boundaries on the continuation side only.
	hot := RootDepaLabel()
	var kids []DepaLabel
	for i := 0; i < depth; i++ {
		kids = append(kids, hot.Fork())
	}
	for i := 1; i < len(kids); i++ {
		if kids[i-1].Compare(kids[i]) != -1 {
			t.Fatalf("skewed: child %d not left of child %d", i-1, i)
		}
	}
	if kids[0].Compare(kids[depth-1]) != -1 {
		t.Fatalf("skewed: first child not left of last")
	}

	// 10^5-label random tree: the creation-order invariant — a child
	// created later than its sibling sits right of it — is checked via
	// a full sort plus adjacent strict inequality (any intransitivity
	// or instability would leave equal or inverted neighbors).
	rng := rand.New(rand.NewSource(97))
	labels := forkTree(rng, 100000)
	sort.Slice(labels, func(a, b int) bool { return labels[a].Compare(labels[b]) < 0 })
	for k := 1; k < len(labels); k++ {
		if labels[k-1].Compare(labels[k]) >= 0 {
			t.Fatalf("10^5 tree: order broken at %d", k)
		}
	}
}

// TestDepaGrowthBounds: a label's bit length equals the number of forks
// on its path — one bit per fork on each side, O(1) amortized space —
// and anchors order head-labels ahead of bit strings.
func TestDepaGrowthBounds(t *testing.T) {
	l := RootDepaLabel()
	if l.Depth() != 0 {
		t.Fatalf("root Depth = %d, want 0", l.Depth())
	}
	for i := 1; i <= 200; i++ {
		child := l.Fork()
		if l.Depth() != i {
			t.Fatalf("after %d forks, continuation Depth = %d", i, l.Depth())
		}
		if child.Depth() != i {
			t.Fatalf("after %d forks, child Depth = %d", i, child.Depth())
		}
	}

	// Anchor ordering: a later head insert (more negative anchor) is
	// left of everything under an earlier anchor, including deep
	// descendants.
	a0 := HeadDepaLabel(0)
	a1 := HeadDepaLabel(-1)
	deep := a1
	for i := 0; i < 100; i++ {
		deep = deep.Fork()
	}
	if a1.Compare(a0) != -1 || deep.Compare(a0) != -1 {
		t.Fatalf("anchor -1 subtree not left of anchor 0")
	}
	if c := a0.Compare(a1); c != 1 {
		t.Fatalf("Compare(anchor 0, anchor -1) = %d, want 1", c)
	}
}

// TestDepaForkSelfRoots: forking an invalid (zero) label promotes it to
// the root label first, so lineages driven outside a machine are valid.
func TestDepaForkSelfRoots(t *testing.T) {
	var l DepaLabel
	if l.Valid() {
		t.Fatal("zero label reports valid")
	}
	child := l.Fork()
	if !l.Valid() || !child.Valid() {
		t.Fatal("fork did not produce valid labels")
	}
	if child.Compare(l) != -1 {
		t.Fatal("self-rooted child not left of continuation")
	}
	if child.Compare(RootDepaLabel()) != -1 {
		t.Fatal("self-rooted child not left of the root position")
	}
}

// compareOracle is the collect-and-compare rule Compare replaced: it
// gathers both labels' divergent chunks into slices, then compares the
// two word streams root-first. It is the differential reference for
// the allocation-free lockstep walk.
func compareOracle(l, o DepaLabel) int {
	if l.anchor != o.anchor {
		if l.anchor < o.anchor {
			return -1
		}
		return 1
	}
	sa, sb := l.spine, o.spine
	var da, db []*depaChunk
	for depaWords(sa) > depaWords(sb) {
		da = append(da, sa)
		sa = sa.prev
	}
	for depaWords(sb) > depaWords(sa) {
		db = append(db, sb)
		sb = sb.prev
	}
	for sa != sb {
		da = append(da, sa)
		sa = sa.prev
		db = append(db, sb)
		sb = sb.prev
	}
	steps := len(da)
	if len(db) > steps {
		steps = len(db)
	}
	for k := 0; k <= steps; k++ {
		wa, la := streamWord(da, k, l.word, uint32(l.nbits))
		wb, lb := streamWord(db, k, o.word, uint32(o.nbits))
		if c := cmpBits(wa, la, wb, lb); c != 0 {
			return c
		}
		if la < 64 || lb < 64 {
			return 0 // a stream ended and everything matched: identical
		}
	}
	return 0
}

// streamWord yields word k (root-first) of a divergent chunk list
// followed by the label's partial word; past the end it reads as empty.
func streamWord(chunks []*depaChunk, k int, tail uint64, tailBits uint32) (uint64, uint32) {
	if k < len(chunks) {
		return chunks[len(chunks)-1-k].bits, 64
	}
	if k == len(chunks) {
		return tail, tailBits
	}
	return 0, 0
}

// depaForest grows a seeded fork forest under a few anchors. chain is
// the percentage of forks taken from the newest lineage (100 and above:
// all of them), so high values grow long chains; the first 256 forks
// always descend, so some labels span at least three spine chunks.
// Besides every child's creation-time label it keeps mid-life
// snapshots of forking parents, the bare anchor heads, and, for labels
// whose partial word is full, a twin spelling the same bits as one more
// chunk and an empty partial word (a representation Fork never builds,
// on which Compare must still agree with the oracle).
func depaForest(rng *rand.Rand, n int, chain int) []DepaLabel {
	var lineages []*DepaLabel
	var labels []DepaLabel
	for a := int64(0); a > -3; a-- {
		h := HeadDepaLabel(a)
		lineages = append(lineages, &h)
		labels = append(labels, h)
	}
	for forks := 0; len(labels) < n; forks++ {
		var p *DepaLabel
		if forks < 4*64 || rng.Intn(100) < chain {
			p = lineages[len(lineages)-1]
		} else {
			p = lineages[rng.Intn(len(lineages))]
		}
		child := p.Fork()
		labels = append(labels, child)
		if rng.Intn(8) == 0 {
			labels = append(labels, *p)
		}
		if child.nbits == 64 {
			twin := child
			twin.spine = &depaChunk{bits: child.word, prev: child.spine, words: depaWords(child.spine) + 1}
			twin.word, twin.nbits = 0, 0
			labels = append(labels, twin)
		}
		c := child
		lineages = append(lineages, &c)
	}
	return labels
}

// FuzzDepaCompare: the lockstep Compare agrees with compareOracle on
// random pairs from seeded forests, deep chains included.
func FuzzDepaCompare(f *testing.F) {
	for _, s := range []struct {
		seed  int64
		chain uint8
	}{{1, 0}, {2, 50}, {3, 90}, {4, 99}, {5, 75}, {6, 97}} {
		f.Add(s.seed, s.chain)
	}
	f.Fuzz(func(t *testing.T, seed int64, chain uint8) {
		rng := rand.New(rand.NewSource(seed))
		labels := depaForest(rng, 3000, int(chain))
		deepest := 0
		for _, l := range labels {
			if d := int(depaWords(l.spine)); d > deepest {
				deepest = d
			}
		}
		if deepest < 3 {
			t.Fatalf("deepest spine %d chunks, want >= 3", deepest)
		}
		for trial := 0; trial < 20000; trial++ {
			a, b := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
			if got, want := a.Compare(b), compareOracle(a, b); got != want {
				t.Fatalf("Compare = %d, oracle %d (depths %d, %d)", got, want, a.Depth(), b.Depth())
			}
		}
	})
}

// TestDepaCompareAllocFree: comparing labels whose spines differ
// allocates nothing, so the scheduler's hot comparisons stay off the
// heap (native policies compare under the scheduler lock).
func TestDepaCompareAllocFree(t *testing.T) {
	parent := RootDepaLabel()
	first := parent.Fork()
	for i := 0; i < 998; i++ {
		parent.Fork()
	}
	last := parent.Fork()
	for _, tc := range []struct {
		name string
		a, b DepaLabel
	}{
		{"siblings 1000 forks apart", first, last},
		{"child against parent", first, parent},
	} {
		if tc.a.spine == tc.b.spine {
			t.Fatalf("%s: labels share a spine, the walk is not exercised", tc.name)
		}
		var c int
		if n := testing.AllocsPerRun(100, func() { c = tc.a.Compare(tc.b) }); n != 0 {
			t.Errorf("%s: %v allocations per Compare, want 0", tc.name, n)
		}
		if c != -1 {
			t.Errorf("%s: Compare = %d, want -1", tc.name, c)
		}
	}
}

// TestDepaCellConsistent: readers of a DepaCell never see a torn label.
// One writer cycles Store, SetTag and Clear over labels whose words all
// differ — shallow and deep (multi-chunk spines), under two anchors —
// with each label's index as its tag, while readers check every
// snapshot: a valid label is exactly the one its tag names, and an
// empty cell carries tag 0. Run under -race this also checks that the
// cell is read and written only through atomics.
func TestDepaCellConsistent(t *testing.T) {
	var labels []DepaLabel
	for _, anchor := range []int64{0, -1} {
		l := HeadDepaLabel(anchor)
		for i := 0; i < 200; i++ {
			c := l.Fork()
			if i%3 == 0 {
				labels = append(labels, c)
			} else {
				labels = append(labels, l)
			}
		}
	}
	var cell DepaCell
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad sync.Once
	var failure string
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, tag := cell.Load()
				switch {
				case l.Valid() && (tag >= uint64(len(labels)) || l.Compare(labels[tag]) != 0):
					bad.Do(func() { failure = "a valid label differs from the one its tag names" })
				case !l.Valid() && tag != 0:
					bad.Do(func() { failure = "an empty cell carries a tag" })
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		for i, l := range labels {
			cell.Store(l, uint64(i))
			cell.SetTag(uint64(i))
			if i%7 == 0 {
				cell.Clear()
			}
		}
	}
	close(stop)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	cell.Store(labels[5], 5)
	if l, tag := cell.Load(); tag != 5 || l.Compare(labels[5]) != 0 {
		t.Fatalf("Load after Store = (depth %d, tag %d), want label 5", l.Depth(), tag)
	}
	cell.Clear()
	if l, tag := cell.Load(); l.Valid() || tag != 0 {
		t.Fatalf("Load after Clear = (valid %v, tag %d), want empty", l.Valid(), tag)
	}
}
