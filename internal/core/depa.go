package core

import (
	"runtime"
	"sync/atomic"
)

// DePa-style fork-path order maintenance (PAPERS.md: "DePa: Simple,
// Provably Efficient, and Practical Order Maintenance for Task
// Parallelism").
//
// Every thread carries a label that encodes its fork path in the binary
// fork tree: at each fork the child's label is the parent's label with a
// 0-bit appended, and the parent's own label gains a 1-bit (the parent
// is the continuation, which follows the child in the serial depth-first
// order). A fork therefore costs O(1) amortized, touches no shared
// structure, and "is thread a left of thread b?" becomes a local
// lexicographic comparison of two bit strings — the property the ADF
// scheduler's leftmost-ready dispatch is built on.
//
// Comparison rule (smaller = earlier in serial order = left):
//
//  1. Labels with different anchors order by anchor. Anchors number the
//     independently rooted fork trees inside one priority level: the
//     root thread and every cross-priority fork get a fresh, decreasing
//     anchor from the scheduler, so a later head-insert lands left of
//     everything already present, exactly like the seed list's
//     insertHead.
//  2. Same anchor: lexicographic on the bit string.
//  3. If one string is a proper prefix of the other, the longer one is
//     LEFT: an extension means a descendant (or an earlier snapshot of
//     the same thread before later forks appended continuation bits),
//     and descendants precede their ancestor's continuation.
//
// Live sibling labels are prefix-free by construction (they diverge at
// the fork bit), so rule 3 only arbitrates thread-vs-own-descendant
// comparisons, where it reproduces the list order.
//
// Representation: the bit string is MSB-first inside 64-bit words. Full
// words live in an immutable, structurally shared linked spine (chunks
// point toward the root), the last partial word is a private scalar.
// Fork copies the five-word struct and flips one bit; Compare walks the
// two spines only across their divergence, converging on a shared chunk
// pointer at the nearest common ancestor — O(divergence/64) words, in
// one lockstep pass that allocates nothing.

// DepaLabel is a fork-path timestamp. The zero value is invalid (no
// position); RootDepaLabel and Fork produce valid labels.
type DepaLabel struct {
	anchor int64
	spine  *depaChunk // full 64-bit words, newest first; nil when short
	word   uint64     // partial word, MSB-first; bits beyond nbits are 0
	nbits  uint8      // bits used in word, 0..64
	valid  bool
}

// depaChunk is one immutable full word of a label's spine. words is the
// total number of full words up to and including this chunk, so two
// spines can be aligned without walking to the root twice.
type depaChunk struct {
	bits  uint64
	prev  *depaChunk
	words uint32
}

// RootDepaLabel returns the label of a run's root thread: anchor 0,
// empty bit string.
func RootDepaLabel() DepaLabel { return DepaLabel{valid: true} }

// HeadDepaLabel returns a fresh tree root under the given anchor; the
// scheduler hands out decreasing anchors so each head insert is left of
// all existing entries. The native ready store keys its FIFO and LIFO
// orders the same way, with sequence numbers as anchors.
func HeadDepaLabel(anchor int64) DepaLabel {
	return DepaLabel{anchor: anchor, valid: true}
}

// Valid reports whether l carries a position.
func (l DepaLabel) Valid() bool { return l.valid }

// Depth returns the bit length of the label — the number of forks on
// the path from the label's tree root, counting both child and
// continuation steps.
func (l DepaLabel) Depth() int {
	n := int(l.nbits)
	if l.spine != nil {
		n += int(l.spine.words) * 64
	}
	return n
}

// Fork appends the fork to l in place (the continuation's 1-bit) and
// returns the child's label (the 0-bit branch). An invalid receiver is
// promoted to the root label first, so lineages driven outside a
// machine (tests, harnesses) self-root at anchor 0.
func (l *DepaLabel) Fork() DepaLabel {
	if !l.valid {
		*l = RootDepaLabel()
	}
	if l.nbits == 64 {
		w := uint32(1)
		if l.spine != nil {
			w = l.spine.words + 1
		}
		l.spine = &depaChunk{bits: l.word, prev: l.spine, words: w}
		l.word, l.nbits = 0, 0
	}
	child := *l
	child.nbits++ // append 0: the bit below nbits is already zero
	l.word |= 1 << (63 - l.nbits)
	l.nbits++
	return child
}

// Compare orders two valid labels: -1 when l is left of o (earlier in
// serial depth-first order), +1 when right, 0 only for identical
// labels.
func (l DepaLabel) Compare(o DepaLabel) int {
	if l.anchor != o.anchor {
		if l.anchor < o.anchor {
			return -1
		}
		return 1
	}
	if l.spine == o.spine {
		// Shared spine (common for siblings and shallow labels): only
		// the partial words differ.
		return cmpBits(l.word, uint32(l.nbits), o.word, uint32(o.nbits))
	}
	if depaWords(l.spine) < depaWords(o.spine) {
		return -o.Compare(l)
	}
	// Chunks are created once and shared by every descendant, so two
	// labels with the same anchor converge on pointer-identical chunks
	// at their common ancestor (possibly nil at the root). Walk l's
	// longer spine down to o's depth, then both in lockstep until they
	// meet: the root-most equal-depth pair whose bits differ decides.
	// Without one, the first word past o's spine does.
	sa, sb := l.spine, o.spine
	var first *depaChunk // l's root-most surplus word, opposite o's partial word
	for extra := depaWords(sa) - depaWords(sb); extra > 0; extra-- {
		first, sa = sa, sa.prev
	}
	var da, db uint64 // the root-most differing pair, once found
	for sa != sb {
		if sa.bits != sb.bits {
			da, db = sa.bits, sb.bits
		}
		sa, sb = sa.prev, sb.prev
	}
	switch {
	case da != db:
		return cmpBits(da, 64, db, 64)
	case first == nil:
		return cmpBits(l.word, uint32(l.nbits), o.word, uint32(o.nbits))
	}
	if c := cmpBits(first.bits, 64, o.word, uint32(o.nbits)); c != 0 {
		return c
	}
	// o ended on a full word equal to first: l extends o (left) unless
	// nothing follows first at all.
	if first == l.spine && l.nbits == 0 {
		return 0
	}
	return -1
}

// cmpBits compares two MSB-first bit strings of up to 64 bits. On a
// shared prefix the longer string is the descendant and orders left.
func cmpBits(wa uint64, la uint32, wb uint64, lb uint32) int {
	n := la
	if lb < n {
		n = lb
	}
	var mask uint64
	if n > 0 {
		mask = ^uint64(0) << (64 - n)
	}
	xa, xb := wa&mask, wb&mask
	switch {
	case xa < xb:
		return -1
	case xa > xb:
		return 1
	case la > lb:
		return -1 // l extends o: descendant, left
	case la < lb:
		return 1
	default:
		return 0
	}
}

func depaWords(c *depaChunk) uint32 {
	if c == nil {
		return 0
	}
	return c.words
}

// DepaCell publishes one DepaLabel, with a tag of up to 56 bits beside
// it, to lock-free readers: the leftmost-label hint of a ready shard,
// which a thief reads without the shard's lock. Writers are serialized
// by the caller; readers retry across a concurrent Store under a
// sequence lock, so they never see a torn label. Store writes only the
// words that changed (a shallow label's anchor and spine rarely do), and
// Clear and SetTag are a single atomic store each: they leave the label
// words alone, and a reader that sees their meta word sees the label
// the last Store published (or none).
type DepaCell struct {
	seq    atomic.Uint64 // odd while a Store is in progress
	anchor atomic.Int64
	spine  atomic.Pointer[depaChunk]
	word   atomic.Uint64
	meta   atomic.Uint64 // nbits (7 bits), valid (1 bit), tag << 8
}

// depaMetaBits is the part of DepaCell.meta below the tag.
const depaMetaBits = 8

// Store publishes l with tag.
func (c *DepaCell) Store(l DepaLabel, tag uint64) {
	c.seq.Add(1)
	if c.anchor.Load() != l.anchor {
		c.anchor.Store(l.anchor)
	}
	if c.spine.Load() != l.spine {
		c.spine.Store(l.spine)
	}
	if c.word.Load() != l.word {
		c.word.Store(l.word)
	}
	m := uint64(l.nbits) | tag<<depaMetaBits
	if l.valid {
		m |= 1 << 7
	}
	c.meta.Store(m)
	c.seq.Add(1)
}

// Clear publishes no label, with tag 0.
func (c *DepaCell) Clear() { c.meta.Store(0) }

// SetTag republishes the tag beside the current label (or none).
func (c *DepaCell) SetTag(tag uint64) {
	c.meta.Store(c.meta.Load()&(1<<depaMetaBits-1) | tag<<depaMetaBits)
}

// Load returns the published label (invalid when none) and its tag.
func (c *DepaCell) Load() (DepaLabel, uint64) {
	for {
		s := c.seq.Load()
		if s&1 != 0 {
			runtime.Gosched() // a Store is in progress: let its writer finish
			continue
		}
		l := DepaLabel{anchor: c.anchor.Load(), spine: c.spine.Load(), word: c.word.Load()}
		m := c.meta.Load()
		if c.seq.Load() != s {
			continue
		}
		l.nbits, l.valid = uint8(m&0x7f), m&(1<<7) != 0
		if !l.valid {
			return DepaLabel{}, m >> depaMetaBits
		}
		return l, m >> depaMetaBits
	}
}
