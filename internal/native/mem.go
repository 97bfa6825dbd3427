package native

import "sync/atomic"

// mem is the backend's live-footprint accounting. Allocations are
// accounted, not performed: like the simulator's memsim, the backend
// tracks byte counts and high-water marks so the ADF quota and the
// S1 + O(p·D) space bound act on the same quantities — but here the
// counters are atomics updated concurrently from thread context.
type mem struct {
	nextAddr  atomic.Int64 // bump address allocator (addresses are names)
	liveHeap  atomic.Int64
	liveStack atomic.Int64
	heapHWM   atomic.Int64
	stackHWM  atomic.Int64
	totalHWM  atomic.Int64
}

// allocHeap accounts an n-byte heap allocation and names it.
func (m *mem) allocHeap(n int64) (addr int64) {
	addr = m.nextAddr.Add(n) - n + 1<<12
	h := m.liveHeap.Add(n)
	atomicMax(&m.heapHWM, h)
	atomicMax(&m.totalHWM, h+m.liveStack.Load())
	return addr
}

func (m *mem) freeHeap(n int64) {
	m.liveHeap.Add(-n)
}

// allocStack accounts a thread stack.
func (m *mem) allocStack(n int64) {
	s := m.liveStack.Add(n)
	atomicMax(&m.stackHWM, s)
	atomicMax(&m.totalHWM, s+m.liveHeap.Load())
}

func (m *mem) freeStack(n int64) {
	m.liveStack.Add(-n)
}

// atomicMax lifts g to at least v.
func atomicMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}
