// Package dtree implements the paper's decision-tree-builder benchmark:
// a top-down, divide-and-conquer classifier for instances with
// continuous attributes, similar to ID3 with C4.5-style handling of
// continuous values. At every node the instances are sorted by each
// attribute (with a parallel quicksort — itself forking a thread per
// recursive call) to find the split with the best gain ratio; the
// recursive child builds are forked as threads. Both recursions switch
// to serial execution below 2,000 instances, as in the paper.
//
// The paper used a 133,999-instance speech dataset with 4 continuous
// attributes and a boolean class; a synthetic generator reproduces that
// shape, with class structure axis-aligned in feature space plus label
// noise so that splits stay data-dependent and the tree irregular.
package dtree

import (
	"math"
	"math/rand"

	"spthreads/pthread"
)

// CyclesPerOp converts abstract instance operations to virtual cycles.
const CyclesPerOp = 4

// SerialCutoff is the instance count below which both the tree build
// and the quicksort recurse serially (the paper's 2,000).
const SerialCutoff = 2000

// Dataset is a column-major table of continuous attributes plus a
// boolean class label per instance.
type Dataset struct {
	Attrs [][]float64 // [attr][instance]
	Label []bool
	alloc pthread.Alloc
}

// NumInstances returns the instance count.
func (d *Dataset) NumInstances() int { return len(d.Label) }

// NumAttrs returns the attribute count.
func (d *Dataset) NumAttrs() int { return len(d.Attrs) }

// GenConfig parameterizes the synthetic dataset.
type GenConfig struct {
	// Instances (default 133999, matching the paper's speech dataset).
	Instances int
	// Attrs (default 4).
	Attrs int
	// Noise is the label-flip probability (default 0.08).
	Noise float64
	// Seed drives generation.
	Seed int64
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Instances == 0 {
		g.Instances = 133999
	}
	if g.Attrs == 0 {
		g.Attrs = 4
	}
	if g.Noise == 0 {
		g.Noise = 0.08
	}
	if g.Seed == 0 {
		g.Seed = 23
	}
	return g
}

// Generate builds a synthetic continuous-attribute dataset with
// structure at several scales, so the induced tree is bushy and
// data-dependent like the paper's speech data: instances fall into
// axis-separable clusters of unequal size, each cluster carries its own
// threshold rule on its own attribute, and labels have noise. The tree
// must first separate the clusters, then discover each cluster's rule.
func Generate(t *pthread.T, g GenConfig) *Dataset {
	g = g.withDefaults()
	rng := rand.New(rand.NewSource(g.Seed))
	d := &Dataset{
		Attrs: make([][]float64, g.Attrs),
		Label: make([]bool, g.Instances),
		alloc: t.Malloc(int64(g.Instances) * int64(g.Attrs*8+1)),
	}
	for a := range d.Attrs {
		d.Attrs[a] = make([]float64, g.Instances)
	}
	nClusters := 1 << g.Attrs
	if nClusters > 8 {
		nClusters = 8
	}
	for i := 0; i < g.Instances; i++ {
		// Skewed cluster sizes: low-numbered clusters are larger, so
		// subtree work is irregular.
		cluster := rng.Intn(nClusters)
		if rng.Float64() < 0.5 {
			cluster /= 2
		}
		for a := 0; a < g.Attrs; a++ {
			center := float64((cluster>>a)&1) * 1.6
			d.Attrs[a][i] = center + rng.NormFloat64()*0.35
		}
		// Each cluster's class rule lives on its own attribute with its
		// own threshold, at a finer scale than the cluster separation.
		rc := (cluster + 1) % g.Attrs
		thr := float64((cluster>>rc)&1)*1.6 + 0.15*float64(cluster%3-1)
		v := d.Attrs[rc][i] > thr
		if rng.Float64() < g.Noise {
			v = !v
		}
		d.Label[i] = v
	}
	// Dataset loading is untimed, as in the paper's methodology.
	t.Prefault(d.alloc)
	return d
}

// Node is one decision-tree node.
type Node struct {
	// Leaf nodes predict Class; internal nodes split on Attr < Split.
	Leaf        bool
	Class       bool
	Attr        int
	Split       float64
	Count       int
	Left, Right *Node
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	return 1 + n.Left.Size() + n.Right.Size()
}

// Depth returns the height of the subtree.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if r > l {
		l = r
	}
	return 1 + l
}

// Predict classifies one instance.
func (n *Node) Predict(x []float64) bool {
	for !n.Leaf {
		if x[n.Attr] < n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// builder carries the shared inputs of one build.
type builder struct {
	d       *Dataset
	minLeaf int
	// xlogx[k] = k*log2(k); entropies over integer counts reduce to
	// table lookups, keeping the per-boundary gain-ratio scan cheap.
	xlogx []float64
}

func (b *builder) initTables() {
	n := b.d.NumInstances()
	b.xlogx = make([]float64, n+1)
	for k := 2; k <= n; k++ {
		b.xlogx[k] = float64(k) * math.Log2(float64(k))
	}
}

// gainRatio computes the C4.5 gain ratio of splitting n instances
// (totalPos positive) into a left part of nl with posLeft positive,
// using the identity n*H(pos/n) = L(n) - L(pos) - L(n-pos) with
// L(k) = k*log2(k).
func (b *builder) gainRatio(n, totalPos, nl, posLeft int) float64 {
	nr := n - nl
	posRight := totalPos - posLeft
	L := b.xlogx
	nH := L[n] - L[totalPos] - L[n-totalPos]
	nHl := L[nl] - L[posLeft] - L[nl-posLeft]
	nHr := L[nr] - L[posRight] - L[nr-posRight]
	gain := nH - nHl - nHr
	// C4.5's safeguard against spurious splits: require a minimum
	// absolute information gain, or sliver splits of noisy data grow
	// degenerate chains.
	if gain/float64(n) < MinGain {
		return 0
	}
	splitInfo := L[n] - L[nl] - L[nr]
	if splitInfo < 1e-9 {
		return 0
	}
	return gain / splitInfo
}

// MinGain is the minimum per-instance information gain (bits) a split
// must achieve to be considered.
const MinGain = 0.001

// Build constructs the tree over the instance indices idx, forking a
// thread per recursive call above the serial cutoff.
func Build(t *pthread.T, d *Dataset, minLeaf int) *Node {
	if minLeaf <= 0 {
		minLeaf = SerialCutoff
	}
	b := &builder{d: d, minLeaf: minLeaf}
	b.initTables()
	idx, idxAll := b.allIndices(t)
	root := b.build(t, idx, idxAll, true)
	t.Free(idxAll)
	return root
}

func (b *builder) allIndices(t *pthread.T) ([]int32, pthread.Alloc) {
	n := b.d.NumInstances()
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	a := t.Malloc(int64(n) * 4)
	t.Charge(int64(n))
	t.TouchAll(a)
	return idx, a
}

// build is the recursive tree construction. parallel selects forked
// children vs serial recursion.
func (b *builder) build(t *pthread.T, idx []int32, idxAll pthread.Alloc, parallel bool) *Node {
	n := len(idx)
	pos := 0
	for _, i := range idx {
		if b.d.Label[i] {
			pos++
		}
	}
	t.Charge(int64(n) * CyclesPerOp)
	node := &Node{Count: n}
	if n < b.minLeaf || pos == 0 || pos == n {
		node.Leaf = true
		node.Class = pos*2 >= n
		return node
	}

	attr, split, ok := b.bestSplit(t, idx, parallel)
	if !ok {
		node.Leaf = true
		node.Class = pos*2 >= n
		return node
	}
	node.Attr, node.Split = attr, split

	// Partition instances; children get fresh index arrays (the dynamic
	// allocation whose high-water mark Figure 9(b) measures).
	vals := b.d.Attrs[attr]
	var left, right []int32
	for _, i := range idx {
		if vals[i] < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	t.Charge(int64(n) * CyclesPerOp)
	if len(left) == 0 || len(right) == 0 {
		node.Leaf = true
		node.Class = pos*2 >= n
		return node
	}
	lAll := t.Malloc(int64(len(left)) * 4)
	rAll := t.Malloc(int64(len(right)) * 4)
	t.TouchAll(lAll)
	t.TouchAll(rAll)

	if parallel && n >= b.minLeaf*2 {
		t.Par(
			func(ct *pthread.T) { node.Left = b.build(ct, left, lAll, true) },
			func(ct *pthread.T) { node.Right = b.build(ct, right, rAll, true) },
		)
	} else {
		node.Left = b.build(t, left, lAll, false)
		node.Right = b.build(t, right, rAll, false)
	}
	t.Free(lAll)
	t.Free(rAll)
	return node
}

// bestSplit sorts the instances by each attribute (parallel quicksort)
// and scans for the split with the best gain ratio.
func (b *builder) bestSplit(t *pthread.T, idx []int32, parallel bool) (attr int, split float64, ok bool) {
	n := len(idx)
	bestGR := 0.0
	// One scratch slice serves every attribute: Par joins the sort's
	// forks before the scan, so nothing still reads it when the next
	// attribute overwrites it.
	sorted := make([]int32, n)
	for a := 0; a < b.d.NumAttrs(); a++ {
		vals := b.d.Attrs[a]
		copy(sorted, idx)
		sAll := t.Malloc(int64(n) * 4)
		t.TouchAll(sAll)
		b.quicksort(t, sorted, vals, parallel)

		// Scan for the best boundary between distinct values.
		totalPos := 0
		for _, i := range sorted {
			if b.d.Label[i] {
				totalPos++
			}
		}
		// C4.5's minimum-objects constraint: both sides must keep a
		// sensible share of the instances, preventing sliver splits that
		// degenerate the tree.
		minSide := b.minLeaf / 8
		if minSide < 2 {
			minSide = 2
		}
		posLeft := 0
		for k := 0; k < n-1; k++ {
			if b.d.Label[sorted[k]] {
				posLeft++
			}
			if vals[sorted[k]] == vals[sorted[k+1]] {
				continue
			}
			if k+1 < minSide || n-(k+1) < minSide {
				continue
			}
			gr := b.gainRatio(n, totalPos, k+1, posLeft)
			if gr > bestGR {
				bestGR = gr
				attr = a
				split = (vals[sorted[k]] + vals[sorted[k+1]]) / 2
				ok = true
			}
		}
		t.Charge(int64(n) * CyclesPerOp)
		t.Free(sAll)
	}
	return attr, split, ok
}

// quicksort sorts idx by vals, forking a thread per recursive call above
// the serial cutoff (the paper forks for each recursive call in
// quicksort too).
func (b *builder) quicksort(t *pthread.T, idx []int32, vals []float64, parallel bool) {
	n := len(idx)
	if n < b.minLeaf || !parallel {
		sortIdx(idx, vals)
		// n log2 n comparison-ish operations.
		t.Charge(int64(n) * int64(math.Ilogb(float64(n)+2)+1) * CyclesPerOp)
		return
	}
	// Median-of-three partition.
	p := medianOfThree(vals, idx[0], idx[n/2], idx[n-1])
	lo, hi := 0, n-1
	for lo <= hi {
		for vals[idx[lo]] < p {
			lo++
		}
		for vals[idx[hi]] > p {
			hi--
		}
		if lo <= hi {
			idx[lo], idx[hi] = idx[hi], idx[lo]
			lo++
			hi--
		}
	}
	t.Charge(int64(n) * CyclesPerOp)
	left, right := idx[:hi+1], idx[lo:]
	t.Par(
		func(ct *pthread.T) { b.quicksort(ct, left, vals, true) },
		func(ct *pthread.T) { b.quicksort(ct, right, vals, true) },
	)
}

// sortIdx sorts idx ascending by vals[idx[i]] with a specialized
// three-way quicksort (duplicate attribute values are common).
func sortIdx(idx []int32, vals []float64) {
	for len(idx) > 12 {
		p := medianOfThree(vals, idx[0], idx[len(idx)/2], idx[len(idx)-1])
		lt, i, gt := 0, 0, len(idx)
		for i < gt {
			v := vals[idx[i]]
			switch {
			case v < p:
				idx[lt], idx[i] = idx[i], idx[lt]
				lt++
				i++
			case v > p:
				gt--
				idx[gt], idx[i] = idx[i], idx[gt]
			default:
				i++
			}
		}
		if lt < len(idx)-gt {
			sortIdx(idx[:lt], vals)
			idx = idx[gt:]
		} else {
			sortIdx(idx[gt:], vals)
			idx = idx[:lt]
		}
	}
	// Insertion sort for small ranges.
	for i := 1; i < len(idx); i++ {
		k := idx[i]
		v := vals[k]
		j := i - 1
		for j >= 0 && vals[idx[j]] > v {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
}

func medianOfThree(vals []float64, a, b, c int32) float64 {
	x, y, z := vals[a], vals[b], vals[c]
	switch {
	case (x <= y && y <= z) || (z <= y && y <= x):
		return y
	case (y <= x && x <= z) || (z <= x && x <= y):
		return x
	default:
		return z
	}
}

// Config parameterizes the benchmark program.
type Config struct {
	Gen GenConfig
	// MinLeaf is the serial/leaf cutoff (default 2000).
	MinLeaf int
	// Check validates training-set accuracy after the build.
	Check bool
}

// Fine returns the fine-grained builder program (thread per recursive
// call in both the tree build and the quicksorts).
func Fine(cfg Config) func(*pthread.T) {
	return func(t *pthread.T) {
		d := Generate(t, cfg.Gen)
		root := Build(t, d, cfg.MinLeaf)
		if cfg.Check {
			check(t, d, root)
		}
	}
}

// Serial returns the sequential baseline.
func Serial(cfg Config) func(*pthread.T) {
	return func(t *pthread.T) {
		d := Generate(t, cfg.Gen)
		b := &builder{d: d, minLeaf: cfg.MinLeaf}
		if b.minLeaf <= 0 {
			b.minLeaf = SerialCutoff
		}
		b.initTables()
		idx, idxAll := b.allIndices(t)
		root := b.build(t, idx, idxAll, false)
		t.Free(idxAll)
		if cfg.Check {
			check(t, d, root)
		}
	}
}

// check asserts that training accuracy beats a majority-class baseline
// by a clear margin (the tree actually learned the rule).
func check(t *pthread.T, d *Dataset, root *Node) {
	n := d.NumInstances()
	correct := 0
	x := make([]float64, d.NumAttrs())
	for i := 0; i < n; i++ {
		for a := range x {
			x[a] = d.Attrs[a][i]
		}
		if root.Predict(x) == d.Label[i] {
			correct++
		}
	}
	if float64(correct)/float64(n) < 0.75 {
		panic("dtree: training accuracy below 0.75; tree failed to learn")
	}
}
