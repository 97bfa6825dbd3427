package sched

import "spthreads/internal/core"

// threadQueue is a slice-backed FIFO/LIFO container for one priority
// level. The head index amortizes dequeues without shifting.
type threadQueue struct {
	a    []*core.Thread
	head int
}

func (q *threadQueue) len() int { return len(q.a) - q.head }

func (q *threadQueue) pushTail(t *core.Thread) {
	q.a = append(q.a, t)
}

func (q *threadQueue) popHead() *core.Thread {
	if q.len() == 0 {
		return nil
	}
	t := q.a[q.head]
	q.a[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 >= len(q.a) {
		n := copy(q.a, q.a[q.head:])
		q.a = q.a[:n]
		q.head = 0
	}
	return t
}

func (q *threadQueue) popTail() *core.Thread {
	if q.len() == 0 {
		return nil
	}
	t := q.a[len(q.a)-1]
	q.a[len(q.a)-1] = nil
	q.a = q.a[:len(q.a)-1]
	return t
}

// levels is a fixed array of priority queues with a fast emptiness scan.
type levels struct {
	qs    [core.NumPriorities]threadQueue
	total int
}

func (l *levels) push(t *core.Thread) {
	l.qs[t.Priority].pushTail(t)
	l.total++
}

// next pops from the highest nonempty priority, FIFO or LIFO within the
// level.
func (l *levels) next(lifo bool) *core.Thread {
	if l.total == 0 {
		return nil
	}
	for pri := core.NumPriorities - 1; pri >= 0; pri-- {
		q := &l.qs[pri]
		if q.len() == 0 {
			continue
		}
		l.total--
		if lifo {
			return q.popTail()
		}
		return q.popHead()
	}
	return nil
}

// fifoPolicy is the original Solaris scheduler: one global FIFO queue
// per priority level; a forked child is appended and the parent keeps
// running, so the computation graph unfolds breadth-first.
type fifoPolicy struct{ l levels }

func newFIFO() *fifoPolicy { return &fifoPolicy{} }

func (p *fifoPolicy) Name() string { return "fifo" }
func (p *fifoPolicy) Global() bool { return true }
func (p *fifoPolicy) Quota() int64 { return 0 }

func (p *fifoPolicy) AllocDummies(int64) int { return 0 }

func (p *fifoPolicy) OnCreate(parent, child *core.Thread) bool {
	p.l.push(child)
	return false
}

func (p *fifoPolicy) OnReady(t *core.Thread, pid int) { p.l.push(t) }
func (p *fifoPolicy) OnBlock(*core.Thread)            {}
func (p *fifoPolicy) OnExit(*core.Thread)             {}
func (p *fifoPolicy) Next(pid int) *core.Thread       { return p.l.next(false) }

// lifoPolicy is the paper's first modification: the global queue becomes
// a stack, yielding an execution order much closer to depth-first.
type lifoPolicy struct{ l levels }

func newLIFO() *lifoPolicy { return &lifoPolicy{} }

func (p *lifoPolicy) Name() string { return "lifo" }
func (p *lifoPolicy) Global() bool { return true }
func (p *lifoPolicy) Quota() int64 { return 0 }

func (p *lifoPolicy) AllocDummies(int64) int { return 0 }

func (p *lifoPolicy) OnCreate(parent, child *core.Thread) bool {
	p.l.push(child)
	return false
}

func (p *lifoPolicy) OnReady(t *core.Thread, pid int) { p.l.push(t) }
func (p *lifoPolicy) OnBlock(*core.Thread)            {}
func (p *lifoPolicy) OnExit(*core.Thread)             {}
func (p *lifoPolicy) Next(pid int) *core.Thread       { return p.l.next(true) }
