package core

import "spthreads/internal/vtime"

// timeHeap holds the virtual times, one entry per ready thread, at
// which each became ready, minimum first. Dispatch pairs a pop with a
// Policy.Next call: the pool of ready threads is treated as fungible,
// gated by the earliest availability time. Times arrive mostly in
// rising order and leave from the front, so the Ordered deque under it
// works as a queue: a push at the back, a pop at the front.
type timeHeap struct {
	d Ordered[readyTime]
}

type readyTime vtime.Time

func (a readyTime) Before(b readyTime) bool { return a < b }

func (h *timeHeap) len() int          { return h.d.Len() }
func (h *timeHeap) min() vtime.Time   { return vtime.Time(h.d.Min()) }
func (h *timeHeap) push(t vtime.Time) { h.d.Push(readyTime(t)) }
func (h *timeHeap) pop() vtime.Time   { return vtime.Time(h.d.Pop()) }
