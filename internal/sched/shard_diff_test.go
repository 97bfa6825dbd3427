package sched

// Differential and property oracles for the sharded ADF policy.
//
// At p=1 a single shard degenerates to one DePa heap, so the sharded
// policy must make bit-identical dispatch choices to adf. With several
// shards the steal path carries the bounded-deviation property: every
// cross-shard dispatch (steal) returns a thread whose true rank in the
// left-to-right ready order — the number of ready threads that precede
// it — is at most the window K. The harness checks that against a full
// pre-dispatch snapshot, which the conservative bound of the steal rule
// (core.StealVictim, which the native shard store calls too) must
// imply.

import (
	"math/rand"
	"testing"

	"spthreads/internal/core"
)

// diffShard drives the sharded policy, optionally next to the adf
// oracle. Threads are mirrored per side because each policy owns
// Thread.SchedState and Thread.Order.
type diffShard struct {
	t     *testing.T
	sh    *shardPolicy
	adf   *adfPolicy // nil when not comparing dispatch choices
	smirr map[int64]*core.Thread
	amirr map[int64]*core.Thread

	nextID  int64
	running []int64
	ready   []int64
	blocked []int64
	procs   int
}

func newDiffShard(t *testing.T, procs, window int, withOracle bool) *diffShard {
	d := &diffShard{
		t:     t,
		sh:    newShard(procs, window),
		smirr: make(map[int64]*core.Thread),
		procs: procs,
	}
	if withOracle {
		d.adf = newADF()
		d.amirr = make(map[int64]*core.Thread)
	}
	return d
}

func (d *diffShard) mirror(id int64, pri int) (s, a *core.Thread) {
	s = &core.Thread{ID: id, Priority: pri}
	d.smirr[id] = s
	if d.adf != nil {
		a = &core.Thread{ID: id, Priority: pri}
		d.amirr[id] = a
	}
	return s, a
}

func (d *diffShard) fork(parentID int64, pri, pid int) {
	d.nextID++
	id := d.nextID
	st, at := d.mirror(id, pri)
	if parentID < 0 {
		if d.sh.OnCreate(nil, st) {
			d.t.Fatal("shard: root OnCreate ran child, want false")
		}
		if d.adf != nil {
			d.adf.OnCreate(nil, at)
		}
		d.ready = append(d.ready, id)
		d.check("root create")
		return
	}
	if !d.sh.OnCreate(d.smirr[parentID], st) {
		d.t.Fatal("shard: fork OnCreate did not run child, want true")
	}
	d.sh.OnReady(d.smirr[parentID], pid)
	if d.adf != nil {
		d.adf.OnCreate(d.amirr[parentID], at)
		d.adf.OnReady(d.amirr[parentID], pid)
	}
	d.moveRunning(parentID, &d.ready)
	d.running = append(d.running, id)
	d.check("fork")
}

// dispatch pulls the next thread for worker pid; with the oracle
// attached both sides must choose the same thread, and every steal must
// satisfy the deviation bound.
func (d *diffShard) dispatch(pid int) {
	snap := d.readySnapshot()
	got := d.sh.Next(pid)
	victim, probes := d.sh.TakeSteal()
	if got == nil {
		if len(d.ready) != 0 {
			d.t.Fatalf("shard: Next=nil with %d ready", len(d.ready))
		}
		return
	}
	if victim >= 0 {
		d.checkStealBound(got, snap, victim, probes)
	}
	if d.adf != nil {
		want := d.adf.Next(pid)
		if want == nil || want.ID != got.ID {
			d.t.Fatalf("dispatch diverged: shard=%d adf=%v", got.ID, want)
		}
	}
	d.removeID(&d.ready, got.ID)
	d.running = append(d.running, got.ID)
	d.check("dispatch")
}

// readySnapshot captures every ready entry's dispatch key.
func (d *diffShard) readySnapshot() []*readyEntry {
	var snap []*readyEntry
	for _, h := range d.sh.shards {
		snap = append(snap, h...)
	}
	return snap
}

// checkStealBound asserts the stolen thread's true rank — ready entries
// strictly left of it in the (priority, label) order — is within the
// window. The policy's shard-granular prefix bound over-estimates this
// rank, so window acceptance must imply it.
func (d *diffShard) checkStealBound(got *core.Thread, snap []*readyEntry, victim, probes int) {
	d.t.Helper()
	e := got.SchedState.(*readyEntry)
	rank := 0
	for _, o := range snap {
		if o != e && o.Before(e) {
			rank++
		}
	}
	if rank > d.sh.window {
		d.t.Fatalf("steal from shard %d (%d probes) took rank-%d thread %d, window %d",
			victim, probes, rank, got.ID, d.sh.window)
	}
}

func (d *diffShard) block(id int64) {
	d.sh.OnBlock(d.smirr[id])
	if d.adf != nil {
		d.adf.OnBlock(d.amirr[id])
	}
	d.moveRunning(id, &d.blocked)
	d.check("block")
}

func (d *diffShard) wake(id int64, pid int) {
	d.sh.OnReady(d.smirr[id], pid)
	if d.adf != nil {
		d.adf.OnReady(d.amirr[id], pid)
	}
	d.removeID(&d.blocked, id)
	d.ready = append(d.ready, id)
	d.check("wake")
}

func (d *diffShard) yield(id int64, pid int) {
	d.sh.OnReady(d.smirr[id], pid)
	if d.adf != nil {
		d.adf.OnReady(d.amirr[id], pid)
	}
	d.moveRunning(id, &d.ready)
	d.check("yield")
}

func (d *diffShard) exit(id int64) {
	d.sh.OnExit(d.smirr[id])
	delete(d.smirr, id)
	if d.adf != nil {
		d.adf.OnExit(d.amirr[id])
		delete(d.amirr, id)
	}
	d.removeID(&d.running, id)
	d.check("exit")
}

func (d *diffShard) moveRunning(id int64, to *[]int64) {
	d.removeID(&d.running, id)
	*to = append(*to, id)
}

func (d *diffShard) removeID(s *[]int64, id int64) {
	for i, v := range *s {
		if v == id {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
	d.t.Fatalf("id %d not in state slice", id)
}

// check asserts the maintained counters against ground truth and the
// per-shard heaps against the entries' ready flags.
func (d *diffShard) check(op string) {
	d.t.Helper()
	if got, want := d.sh.Live(), len(d.smirr); got != want {
		d.t.Fatalf("%s: Live=%d, model has %d live", op, got, want)
	}
	if got, want := d.sh.ReadyCount(), len(d.ready); got != want {
		d.t.Fatalf("%s: ReadyCount=%d, model has %d ready", op, got, want)
	}
	sum := 0
	for j, h := range d.sh.shards {
		for i, e := range h {
			if !e.ready {
				d.t.Fatalf("%s: shard %d slot %d holds thread %d not flagged ready", op, j, i, e.t.ID)
			}
		}
		sum += len(h)
	}
	if sum != d.sh.ReadyCount() {
		d.t.Fatalf("%s: shard heap sizes sum to %d, counter says %d", op, sum, d.sh.ReadyCount())
	}
	if d.adf != nil {
		if a, s := d.adf.ReadyCount(), d.sh.ReadyCount(); a != s {
			d.t.Fatalf("%s: ReadyCount adf=%d shard=%d", op, a, s)
		}
		if a, s := d.adf.Live(), d.sh.Live(); a != s {
			d.t.Fatalf("%s: Live adf=%d shard=%d", op, a, s)
		}
	}
}

// step applies one operation chosen by the byte stream.
func (d *diffShard) step(opByte, pickByte, priByte byte) {
	pid := int(pickByte) % d.procs
	if len(d.smirr) == 0 {
		d.fork(-1, int(priByte)%core.NumPriorities, pid)
		return
	}
	pick := func(s []int64) (int64, bool) {
		if len(s) == 0 {
			return 0, false
		}
		return s[int(pickByte)%len(s)], true
	}
	switch opByte % 6 {
	case 0:
		if id, ok := pick(d.running); ok {
			pri := d.smirr[id].Priority
			if priByte%4 == 0 {
				pri = int(priByte) % core.NumPriorities
			}
			d.fork(id, pri, pid)
		}
	case 1:
		if len(d.running) < d.procs {
			d.dispatch(pid)
		}
	case 2:
		if id, ok := pick(d.running); ok {
			d.block(id)
		}
	case 3:
		if id, ok := pick(d.blocked); ok {
			d.wake(id, pid)
		}
	case 4:
		if id, ok := pick(d.running); ok {
			d.yield(id, pid)
		}
	case 5:
		if id, ok := pick(d.running); ok {
			d.exit(id)
		}
	}
}

func (d *diffShard) drain(pid int) {
	for len(d.blocked) > 0 {
		d.wake(d.blocked[0], pid)
	}
	for len(d.ready) > 0 {
		d.dispatch(pid)
	}
	for len(d.running) > 0 {
		d.exit(d.running[0])
	}
	if got := d.sh.Next(pid); got != nil {
		d.t.Fatalf("drained shard policy still dispatches: %v", got)
	}
}

func (d *diffShard) runRandom(seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	d.fork(-1, 0, 0)
	d.dispatch(0)
	for op := 0; op < ops; op++ {
		d.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if d.t.Failed() {
			d.t.Fatalf("seed %d failed at op %d", seed, op)
		}
	}
	d.drain(0)
}

// TestShardP1MatchesADF: one shard — every dispatch is an own-shard pop
// of the single heap, so the policy must be bit-identical to adf.
func TestShardP1MatchesADF(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		newDiffShard(t, 1, 0, true).runRandom(seed, 2000)
	}
}

// TestShardStealBounded: several shards and tight
// windows — no dispatch-identity claim, but every steal must return a
// thread within K of the leftmost ready position (checked against a
// full snapshot inside dispatch) and all counters must stay exact.
func TestShardStealBounded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, window := range []int{1, 2, 8} {
			newDiffShard(t, 4, window, false).runRandom(seed, 2000)
		}
	}
}

// TestShardStealCounters pins the steal/reject accounting on a hand-
// built scenario: worker 1's shard is empty, so its dispatch must steal,
// and with everything ready in shard 0 the bound for shard 0's leftmost
// is 0 — within any window.
func TestShardStealCounters(t *testing.T) {
	p := newShard(2, 1)
	root := &core.Thread{ID: 1}
	p.OnCreate(nil, root)
	got := p.Next(1) // steal: shard 1 empty, root sits in shard 0
	if got == nil || got.ID != 1 {
		t.Fatalf("Next(1) = %v, want root", got)
	}
	if v, _ := p.TakeSteal(); v != 0 {
		t.Fatalf("TakeSteal victim = %d, want 0", v)
	}
	if p.Steals() != 1 {
		t.Fatalf("Steals = %d, want 1", p.Steals())
	}
	p.OnExit(root)
	if p.Live() != 0 || p.ReadyCount() != 0 {
		t.Fatalf("Live=%d Ready=%d after exit, want 0,0", p.Live(), p.ReadyCount())
	}
}

// FuzzShardSteal lets the fuzzer explore fork/dispatch/block/wake/exit
// sequences with the window from the first byte: every steal must stay
// within its deviation window and every counter exact.
func FuzzShardSteal(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 0, 1, 0, 5, 5, 5, 2, 3, 2, 3, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		d := newDiffShard(t, 4, 1+int(data[0])%8, false)
		data = data[1:]
		d.fork(-1, 0, 0)
		d.dispatch(0)
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			d.step(data[i], data[i+1], data[i+2])
		}
		d.drain(0)
	})
}
