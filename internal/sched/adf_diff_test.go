package sched

// Differential oracle for the ADF dispatch structure: the DePa-labeled
// deque (the production store), the order-statistic treap, and the
// seed's naive linked list are driven through identical random
// fork/dispatch/block/wake/exit/priority sequences and must agree on
// every observable — the thread returned by Next(), per-level ready
// counts, the global ready count, and Live() — at every step. The
// linked list is trivially correct (it is the paper's data structure,
// transcribed); any label or treap bug that changes a dispatch decision
// surfaces here long before it would corrupt a benchmark figure.
//
// On top of the per-step observables, every check also walks the
// reference list and asserts the threads' live DePa labels are strictly
// increasing along it — running and blocked threads included, whose
// labels keep their serial position with no entry — and the treap's
// in-order traversal reproduces it, so the three stores agree not just
// on dispatch answers but on the entire maintained serial order.

import (
	"math/rand"
	"testing"

	"spthreads/internal/core"
)

// adfSide is a store under differential test.
type adfSide interface {
	core.Policy
	Live() int
	ReadyCount() int
}

// diffADF drives one policy per store under test: the production store
// first, then the treap and the list behind the reference shell.
// Threads are mirrored per side because the production store owns
// Thread.Order.
type diffADF struct {
	t     *testing.T
	names []string
	sides []adfSide
	mirr  []map[int64]*core.Thread // per-side mirrored threads

	nextID   int64
	running  []int64
	ready    []int64
	blocked  []int64
	maxProcs int
}

func newDiffADF(t *testing.T, maxProcs int) *diffADF {
	d := &diffADF{t: t, maxProcs: maxProcs}
	add := func(name string, p adfSide) {
		d.names = append(d.names, name)
		d.sides = append(d.sides, p)
		d.mirr = append(d.mirr, make(map[int64]*core.Thread))
	}
	add("depa", newADF())
	add("treap", newADFTreap())
	add("ref", NewADFReference().(*refADF))
	return d
}

// refSide indexes the linked-list oracle inside d.sides.
const refSide = 2

func (d *diffADF) mirror(id int64, pri int) []*core.Thread {
	ts := make([]*core.Thread, len(d.sides))
	for i := range d.sides {
		ts[i] = &core.Thread{ID: id, Priority: pri}
		d.mirr[i][id] = ts[i]
	}
	return ts
}

// fork creates a child of the given running parent (or the root when
// parentID < 0) and applies the machine's fork protocol to all sides.
func (d *diffADF) fork(parentID int64, pri int) {
	d.nextID++
	id := d.nextID
	ts := d.mirror(id, pri)
	if parentID < 0 {
		for i, p := range d.sides {
			if p.OnCreate(nil, ts[i]) {
				d.t.Fatalf("%s: root OnCreate ran child, want false", d.names[i])
			}
		}
		d.ready = append(d.ready, id)
		d.check("root create")
		return
	}
	for i, p := range d.sides {
		if !p.OnCreate(d.mirr[i][parentID], ts[i]) {
			d.t.Fatalf("%s: fork OnCreate did not run child, want true", d.names[i])
		}
		// The machine preempts the parent and runs the child immediately.
		p.OnReady(d.mirr[i][parentID], 0)
	}
	d.moveRunning(parentID, &d.ready)
	d.running = append(d.running, id)
	d.check("fork")
}

// dispatch pulls the next thread from all sides and requires the same
// choice.
func (d *diffADF) dispatch() {
	first := d.sides[0].Next(0)
	for i := 1; i < len(d.sides); i++ {
		got := d.sides[i].Next(0)
		switch {
		case (first == nil) != (got == nil):
			d.t.Fatalf("Next: %s=%v %s=%v", d.names[0], first, d.names[i], got)
		case first != nil && got.ID != first.ID:
			d.t.Fatalf("Next chose different threads: %s=%d %s=%d",
				d.names[0], first.ID, d.names[i], got.ID)
		}
	}
	if first == nil {
		return
	}
	d.removeID(&d.ready, first.ID)
	d.running = append(d.running, first.ID)
	d.check("dispatch")
}

func (d *diffADF) block(id int64) {
	for i, p := range d.sides {
		p.OnBlock(d.mirr[i][id])
	}
	d.moveRunning(id, &d.blocked)
	d.check("block")
}

func (d *diffADF) wake(id int64) {
	for i, p := range d.sides {
		p.OnReady(d.mirr[i][id], 0)
	}
	d.removeID(&d.blocked, id)
	d.ready = append(d.ready, id)
	d.check("wake")
}

func (d *diffADF) yield(id int64) {
	for i, p := range d.sides {
		p.OnReady(d.mirr[i][id], 0)
	}
	d.moveRunning(id, &d.ready)
	d.check("yield")
}

func (d *diffADF) exit(id int64) {
	for i, p := range d.sides {
		p.OnExit(d.mirr[i][id])
		delete(d.mirr[i], id)
	}
	d.removeID(&d.running, id)
	d.check("exit")
}

func (d *diffADF) moveRunning(id int64, to *[]int64) {
	d.removeID(&d.running, id)
	*to = append(*to, id)
}

func (d *diffADF) removeID(s *[]int64, id int64) {
	for i, v := range *s {
		if v == id {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
	d.t.Fatalf("id %d not in state slice", id)
}

// chainOrder returns the reference list's left-to-right thread IDs and
// ready flags for one priority level.
func (d *diffADF) chainOrder(pri int) (ids []int64, ready []bool) {
	l, _ := d.sides[refSide].(*refADF).levels[pri].(*adfChain)
	if l == nil {
		return nil, nil // level never used
	}
	for e := l.head; e != nil; e = e.next {
		ids = append(ids, e.t.ID)
		ready = append(ready, e.ready)
	}
	return ids, ready
}

// treapOrder returns the treap's in-order thread IDs for one level.
func (d *diffADF) treapOrder(pri int, side int) []int64 {
	tr, _ := d.sides[side].(*refADF).levels[pri].(*adfTreap)
	var ids []int64
	if tr == nil {
		return nil // level never used
	}
	var walk func(*treapEntry)
	walk = func(e *treapEntry) {
		if e == nil {
			return
		}
		walk(e.left)
		ids = append(ids, e.t.ID)
		walk(e.right)
	}
	walk(tr.root)
	return ids
}

// levelCounts returns a priority level's ready and entry counts, zero
// for a level the reference never built. The production store keeps no
// entries, so its count is the model's (want).
func levelCounts(p adfSide, pri, want int) (ready, n int) {
	switch p := p.(type) {
	case *refADF:
		if l := p.levels[pri]; l != nil {
			return l.readyCount(), l.count()
		}
	case *orderedPolicy:
		for _, t := range p.readyItems() {
			if t.Priority == pri {
				ready++
			}
		}
		return ready, want
	}
	return 0, 0
}

// check asserts every observable agrees across the stores and that the
// maintained counters match ground truth.
func (d *diffADF) check(op string) {
	d.t.Helper()
	lead := d.sides[0]
	for i := 1; i < len(d.sides); i++ {
		if a, b := lead.Live(), d.sides[i].Live(); a != b {
			d.t.Fatalf("%s: Live %s=%d %s=%d", op, d.names[0], a, d.names[i], b)
		}
		if a, b := lead.ReadyCount(), d.sides[i].ReadyCount(); a != b {
			d.t.Fatalf("%s: ReadyCount %s=%d %s=%d", op, d.names[0], a, d.names[i], b)
		}
	}
	if want := len(d.ready); lead.ReadyCount() != want {
		d.t.Fatalf("%s: ReadyCount=%d, model has %d ready", op, lead.ReadyCount(), want)
	}
	if want := len(d.mirr[0]); lead.Live() != want {
		d.t.Fatalf("%s: Live=%d, model has %d live", op, lead.Live(), want)
	}
	wantLevel := make([]int, core.NumPriorities)
	for _, th := range d.mirr[0] {
		wantLevel[th.Priority]++
	}
	for pri := 0; pri < core.NumPriorities; pri++ {
		readyN, _ := levelCounts(d.sides[0], pri, wantLevel[pri])
		for i, p := range d.sides {
			rc, n := levelCounts(p, pri, wantLevel[pri])
			if rc != readyN {
				d.t.Fatalf("%s: level %d readyCount %s=%d %s=%d",
					op, pri, d.names[0], readyN, d.names[i], rc)
			}
			if n != wantLevel[pri] {
				d.t.Fatalf("%s: %s level %d walk found %d entries, want %d",
					op, d.names[i], pri, n, wantLevel[pri])
			}
		}
		d.checkOrder(op, pri)
	}
	sums := make([]int, len(d.sides))
	for pri := 0; pri < core.NumPriorities; pri++ {
		for i, p := range d.sides {
			rc, _ := levelCounts(p, pri, 0)
			sums[i] += rc
		}
	}
	for i, p := range d.sides {
		if sums[i] != p.ReadyCount() {
			d.t.Fatalf("%s: %s per-level ready sum %d disagrees with counter %d",
				op, d.names[i], sums[i], p.ReadyCount())
		}
	}
}

// checkOrder asserts the three stores maintain the identical serial
// order in one level: the live DePa labels strictly increase along the
// reference list (left-of agreement on every adjacent pair, hence — by
// totality — on every pair), and the treap's in-order traversal equals
// the list.
func (d *diffADF) checkOrder(op string, pri int) {
	d.t.Helper()
	ids, _ := d.chainOrder(pri)
	tids := d.treapOrder(pri, 1)
	if len(tids) != len(ids) {
		d.t.Fatalf("%s: level %d treap in-order has %d entries, list has %d", op, pri, len(tids), len(ids))
	}
	for k := range ids {
		if tids[k] != ids[k] {
			d.t.Fatalf("%s: level %d position %d: treap=%d list=%d", op, pri, k, tids[k], ids[k])
		}
	}
	for k := 1; k < len(ids); k++ {
		a, b := d.mirr[0][ids[k-1]].Order, d.mirr[0][ids[k]].Order
		if c := a.Compare(b); c >= 0 {
			d.t.Fatalf("%s: level %d: depa label order broken at position %d (ids %d,%d): Compare=%d",
				op, pri, k, ids[k-1], ids[k], c)
		}
	}
}

// step applies one operation chosen by the byte stream; it returns
// false once the computation is fully drained and cannot restart.
func (d *diffADF) step(opByte, pickByte, priByte byte) {
	if len(d.mirr[0]) == 0 {
		d.fork(-1, int(priByte)%core.NumPriorities)
		return
	}
	pick := func(s []int64) (int64, bool) {
		if len(s) == 0 {
			return 0, false
		}
		return s[int(pickByte)%len(s)], true
	}
	switch opByte % 6 {
	case 0: // fork from a running thread, usually same priority
		if id, ok := pick(d.running); ok {
			pri := d.mirr[0][id].Priority
			if priByte%4 == 0 {
				// Cross-priority fork: exercises the insertHead path.
				pri = int(priByte) % core.NumPriorities
			}
			d.fork(id, pri)
		}
	case 1:
		if len(d.running) < d.maxProcs {
			d.dispatch()
		}
	case 2:
		if id, ok := pick(d.running); ok {
			d.block(id)
		}
	case 3:
		if id, ok := pick(d.blocked); ok {
			d.wake(id)
		}
	case 4:
		if id, ok := pick(d.running); ok {
			d.yield(id)
		}
	case 5:
		if id, ok := pick(d.running); ok {
			d.exit(id)
		}
	}
}

// drain wakes everything and dispatches to exhaustion, comparing the
// full remaining dispatch order.
func (d *diffADF) drain() {
	for len(d.blocked) > 0 {
		d.wake(d.blocked[0])
	}
	for len(d.ready) > 0 {
		d.dispatch()
	}
	for len(d.running) > 0 {
		d.exit(d.running[0])
	}
	for i, p := range d.sides {
		if got := p.Next(0); got != nil {
			d.t.Fatalf("drained %s still dispatches: %v", d.names[i], got)
		}
	}
}

func TestADFDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(8)
		d := newDiffADF(t, procs)
		d.fork(-1, 0)
		d.dispatch() // root starts running
		for op := 0; op < 3000; op++ {
			d.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if t.Failed() {
				t.Fatalf("seed %d failed at op %d", seed, op)
			}
		}
		d.drain()
	}
}

// FuzzADFDifferential lets go test -fuzz explore operation sequences
// beyond the fixed random seeds; the corpus entries replay in normal
// test runs.
func FuzzADFDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 1, 0, 5, 5, 5, 2, 3, 2, 3, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := newDiffADF(t, 4)
		d.fork(-1, 0)
		d.dispatch()
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			d.step(data[i], data[i+1], data[i+2])
		}
		d.drain()
	})
}
