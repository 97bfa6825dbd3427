package memsim

import "slices"

// TLB models a fully associative, LRU translation lookaside buffer for
// one simulated processor. The UltraSPARC-I data TLB held 64 entries.
// Its resident pages sit in one fixed array in recency order, so an
// access is a short scan and a shift, and allocates nothing.
type TLB struct {
	pages []int64 // resident pages, most recently used first; cap is the capacity
}

// DefaultTLBEntries is the modeled TLB capacity.
const DefaultTLBEntries = 64

// NewTLB creates a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	return &TLB{pages: make([]int64, 0, entries)}
}

// Access looks up a page, reporting whether it hit, and updates recency
// (inserting the page and evicting the LRU entry on a miss).
func (t *TLB) Access(page int64) bool {
	a := t.pages
	i := slices.Index(a, page)
	hit := i >= 0
	if !hit {
		if len(a) < cap(a) {
			a = append(a, 0)
			t.pages = a
		}
		if len(a) == 0 {
			return false // no entries at all
		}
		i = len(a) - 1 // the free slot, or the LRU entry to evict
	}
	copy(a[1:i+1], a[:i])
	a[0] = page
	return hit
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return len(t.pages) }
