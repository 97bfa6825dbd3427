package sched

import "spthreads/internal/core"

// dfdPolicy is a simplified DFDeques scheduler — the direction the paper
// names as future work (Sections 5.3 and 6): combine the space-efficient
// ordering with locality, so that threads close together in the
// computation graph run on the same processor and the user need not
// coarsen thread granularity for locality.
//
// Structure (after Narlikar's DFDeques, simplified):
//
//   - Each processor owns a deque of ready threads and works at its
//     bottom end, child-first — consecutive forks run back-to-back on
//     the forking processor, which is what preserves cache and TLB
//     state across threads.
//   - The deques themselves sit in a single ordered list, leftmost
//     holding the most senior (earliest serial order) work.
//   - A processor without local work steals the top (most senior)
//     thread of the leftmost non-empty deque and starts a fresh deque
//     of its own immediately to the victim's left, preserving the
//     global seniority order that the space bound relies on.
//   - ADF's allocation quota and dummy-thread throttling apply
//     unchanged.
//
// This implementation keeps the mechanism deterministic (leftmost
// steals rather than randomized victims) and does not claim the formal
// DFDeques space bound; the ablloc experiment measures what it is for:
// better speedup at fine thread granularity than the ordered-list ADF
// scheduler, at comparable memory.
type dfdPolicy struct {
	quota   int64
	dummies bool
	deques  []*dfdDeque // ordered: index 0 is the leftmost (most senior)
	owner   []int       // proc id -> index into deques, or -1
	total   int
}

// dfdDeque holds ready threads; index 0 is the top (most senior) end,
// the owner pushes and pops at the bottom (the slice tail).
type dfdDeque struct {
	threads []*core.Thread
	ownerID int // owning proc, or -1 once abandoned
}

func newDFD(procs int, quotaK int64, disableDummies bool) *dfdPolicy {
	p := &dfdPolicy{quota: quotaK, dummies: !disableDummies, owner: make([]int, procs)}
	for i := range p.owner {
		p.owner[i] = -1
	}
	return p
}

func (p *dfdPolicy) Name() string { return "dfd" }
func (p *dfdPolicy) Global() bool { return false }
func (p *dfdPolicy) Quota() int64 { return p.quota }

func (p *dfdPolicy) AllocDummies(m int64) int {
	if !p.dummies || p.quota <= 0 || m <= p.quota {
		return 0
	}
	return int((m + p.quota - 1) / p.quota)
}

// dequeFor returns the proc's deque, creating one at the right end of
// the list if it has none (a processor running freshly stolen or woken
// work anchors its new deque there).
func (p *dfdPolicy) dequeFor(pid int) *dfdDeque {
	if idx := p.owner[pid]; idx >= 0 {
		return p.deques[idx]
	}
	d := &dfdDeque{ownerID: pid}
	p.deques = append(p.deques, d)
	p.owner[pid] = len(p.deques) - 1
	return d
}

func (p *dfdPolicy) OnCreate(parent, child *core.Thread) bool {
	if parent == nil {
		d := p.dequeFor(0)
		d.threads = append(d.threads, child)
		p.total++
		return false
	}
	// Child-first: the machine runs the child on the forking processor;
	// the parent re-enters through OnReady on the same processor.
	return true
}

func (p *dfdPolicy) OnReady(t *core.Thread, pid int) {
	if pid < 0 || pid >= len(p.owner) {
		pid = 0
	}
	d := p.dequeFor(pid)
	d.threads = append(d.threads, t)
	p.total++
}

func (p *dfdPolicy) OnBlock(*core.Thread) {}
func (p *dfdPolicy) OnExit(*core.Thread)  {}

func (p *dfdPolicy) Next(pid int) *core.Thread {
	if p.total == 0 {
		return nil
	}
	// Local bottom first: locality.
	if idx := p.owner[pid]; idx >= 0 {
		d := p.deques[idx]
		if n := len(d.threads); n > 0 {
			t := d.threads[n-1]
			d.threads[n-1] = nil
			d.threads = d.threads[:n-1]
			p.total--
			return t
		}
		// Own deque exhausted: drop it from the list.
		p.removeDeque(idx)
	}
	// Steal the top of the leftmost non-empty deque and re-anchor a
	// fresh deque immediately to its left.
	for i := 0; i < len(p.deques); i++ {
		d := p.deques[i]
		if len(d.threads) == 0 {
			p.removeDeque(i)
			i--
			continue
		}
		t := d.threads[0]
		copy(d.threads, d.threads[1:])
		d.threads[len(d.threads)-1] = nil
		d.threads = d.threads[:len(d.threads)-1]
		p.total--
		nd := &dfdDeque{ownerID: pid}
		p.insertDeque(i, nd)
		p.owner[pid] = i
		return t
	}
	return nil
}

// removeDeque deletes deques[idx], fixing owner indices.
func (p *dfdPolicy) removeDeque(idx int) {
	if d := p.deques[idx]; d.ownerID >= 0 {
		p.owner[d.ownerID] = -1
	}
	p.deques = append(p.deques[:idx], p.deques[idx+1:]...)
	for pid, oi := range p.owner {
		if oi > idx {
			p.owner[pid] = oi - 1
		}
	}
}

// insertDeque places d at position idx, fixing owner indices.
func (p *dfdPolicy) insertDeque(idx int, d *dfdDeque) {
	p.deques = append(p.deques, nil)
	copy(p.deques[idx+1:], p.deques[idx:])
	p.deques[idx] = d
	for pid, oi := range p.owner {
		if oi >= idx {
			p.owner[pid] = oi + 1
		}
	}
}
