package sched

// Differential oracle for the fifo and lifo orders: the production
// store keys a thread becoming ready with a ±sequence head label and
// keeps it in one ordered deque, while the reference below is the seed's
// global queue, one slice-backed FIFO/LIFO container per priority level.
// Both are driven through identical random create / dispatch / block /
// wake / yield / exit sequences over several priorities and must
// dispatch the identical thread sequence.

import (
	"math/rand"
	"testing"

	"spthreads/internal/core"
)

// threadQueue is a slice-backed FIFO/LIFO container for one priority
// level. The head index amortizes dequeues without shifting.
type threadQueue struct {
	a    []*core.Thread
	head int
}

func (q *threadQueue) len() int { return len(q.a) - q.head }

func (q *threadQueue) popHead() *core.Thread {
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
	t := q.a[len(q.a)-1]
	q.a[len(q.a)-1] = nil
	q.a = q.a[:len(q.a)-1]
	return t
}

// refQueue is the seed's fifo or lifo policy: one queue per priority
// level; a forked child is appended and the parent keeps running; Next
// pops the highest non-empty level at its head (fifo) or tail (lifo).
type refQueue struct {
	qs   [core.NumPriorities]threadQueue
	lifo bool
}

func (p *refQueue) Name() string { return "queue-ref" }
func (p *refQueue) Global() bool { return true }

func (p *refQueue) OnCreate(parent, child *core.Thread) bool {
	p.OnReady(child, 0)
	return false
}

func (p *refQueue) OnReady(t *core.Thread, pid int) {
	q := &p.qs[t.Priority]
	q.a = append(q.a, t)
}

func (p *refQueue) OnBlock(*core.Thread) {}
func (p *refQueue) OnExit(*core.Thread)  {}

func (p *refQueue) Next(pid int) *core.Thread {
	for pri := core.NumPriorities - 1; pri >= 0; pri-- {
		q := &p.qs[pri]
		switch {
		case q.len() == 0:
		case p.lifo:
			return q.popTail()
		default:
			return q.popHead()
		}
	}
	return nil
}

// diffQueue drives the production store and the reference for one
// order. Threads are mirrored per side because the store owns
// Thread.Order.
type diffQueue struct {
	t     *testing.T
	kind  Kind
	store core.Policy
	ref   core.Policy
	smirr map[int64]*core.Thread
	rmirr map[int64]*core.Thread
	pris  int

	nextID                  int64
	running, ready, blocked []int64
	dispatched              int
}

func newDiffQueue(t *testing.T, kind Kind, pris int) *diffQueue {
	return &diffQueue{
		t: t, kind: kind, pris: pris,
		store: MustNew(kind, Options{}),
		ref:   &refQueue{lifo: kind == LIFO},
		smirr: map[int64]*core.Thread{},
		rmirr: map[int64]*core.Thread{},
	}
}

// create makes a thread of priority pri, forked by the running parent
// (nil for a root); under both orders it joins the ready set.
func (d *diffQueue) create(parent int64, pri int) {
	d.nextID++
	id := d.nextID
	s, r := &core.Thread{ID: id, Priority: pri}, &core.Thread{ID: id, Priority: pri}
	d.smirr[id], d.rmirr[id] = s, r
	if d.store.OnCreate(d.smirr[parent], s) || d.ref.OnCreate(d.rmirr[parent], r) {
		d.t.Fatalf("%s: OnCreate ran the child first", d.kind)
	}
	d.ready = append(d.ready, id)
}

// dispatch requires both sides to pick the same thread.
func (d *diffQueue) dispatch() {
	s, r := d.store.Next(0), d.ref.Next(0)
	switch {
	case (s == nil) != (r == nil):
		d.t.Fatalf("%s dispatch %d: store %v, reference %v", d.kind, d.dispatched, s, r)
	case s == nil:
		if len(d.ready) != 0 {
			d.t.Fatalf("%s: nothing dispatched with %d ready", d.kind, len(d.ready))
		}
		return
	case s.ID != r.ID:
		d.t.Fatalf("%s dispatch %d: store chose thread %d, reference %d", d.kind, d.dispatched, s.ID, r.ID)
	}
	d.dispatched++
	d.ready = without(d.ready, s.ID)
	d.running = append(d.running, s.ID)
}

// toReady makes thread id ready again on both sides: a wake or a yield.
func (d *diffQueue) toReady(id int64) {
	d.store.OnReady(d.smirr[id], 0)
	d.ref.OnReady(d.rmirr[id], 0)
	d.ready = append(d.ready, id)
}

// without removes id from s.
func without(s []int64, id int64) []int64 {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	panic("id not in state slice")
}

// step applies one operation chosen by the byte stream.
func (d *diffQueue) step(op, pick, pri byte) {
	at := func(s []int64) (int64, bool) {
		if len(s) == 0 {
			return 0, false
		}
		return s[int(pick)%len(s)], true
	}
	id, ok := at(d.running)
	switch op % 6 {
	case 0: // create, from a running thread or as a new root
		parent := int64(0)
		if ok {
			parent = id
		}
		d.create(parent, int(pri)%d.pris)
	case 1:
		d.dispatch()
	case 2: // block
		if ok {
			d.store.OnBlock(d.smirr[id])
			d.ref.OnBlock(d.rmirr[id])
			d.running = without(d.running, id)
			d.blocked = append(d.blocked, id)
		}
	case 3: // wake
		if id, ok := at(d.blocked); ok {
			d.blocked = without(d.blocked, id)
			d.toReady(id)
		}
	case 4: // yield
		if ok {
			d.running = without(d.running, id)
			d.toReady(id)
		}
	case 5: // exit
		if ok {
			d.store.OnExit(d.smirr[id])
			d.ref.OnExit(d.rmirr[id])
			d.running = without(d.running, id)
		}
	}
}

// drain wakes everything and dispatches to exhaustion, comparing the
// full remaining dispatch order.
func (d *diffQueue) drain() {
	for len(d.blocked) > 0 {
		id := d.blocked[0]
		d.blocked = without(d.blocked, id)
		d.toReady(id)
	}
	for len(d.ready) > 0 {
		d.dispatch()
	}
	d.dispatch() // both empty
}

// runQueueDiff replays data as (op, pick, priority) triples under both
// orders.
func runQueueDiff(t *testing.T, data []byte, pris int) {
	for _, kind := range []Kind{FIFO, LIFO} {
		d := newDiffQueue(t, kind, pris)
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			d.step(data[i], data[i+1], data[i+2])
		}
		d.drain()
	}
}

// TestQueueOrderRandom replays random operation sequences over 3 and 5
// priorities.
func TestQueueOrderRandom(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*2000)
		rng.Read(data)
		runQueueDiff(t, data, 3+int(seed%2)*2)
	}
}

// FuzzQueueOrder lets go test -fuzz explore operation sequences over
// four priorities; corpus entries replay in normal runs.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 4, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 3, 1, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 0, 1, 0, 0, 3, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) { runQueueDiff(t, data, 4) })
}
