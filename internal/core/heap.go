package core

import "spthreads/internal/vtime"

// timeHeap is a min-heap of virtual times, one entry per ready thread,
// recording when each became ready. Dispatch pairs a pop with a
// Policy.Next call: the pool of ready threads is treated as fungible,
// gated by the earliest availability time.
type timeHeap struct {
	h Heap[readyTime]
}

type readyTime vtime.Time

func (a readyTime) Before(b readyTime) bool { return a < b }

func (h *timeHeap) len() int          { return len(h.h) }
func (h *timeHeap) min() vtime.Time   { return vtime.Time(h.h[0]) }
func (h *timeHeap) push(t vtime.Time) { h.h.Push(readyTime(t)) }
func (h *timeHeap) pop() vtime.Time   { return vtime.Time(h.h.Pop()) }
