package native

import (
	"fmt"
	"runtime"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Thread-facing operations (core.Backend). All run in thread context:
// in the body of the thread passed as the first argument, while
// that thread holds a processor.

// nt unwraps an core.Handle to this backend's representation.
func nt(t core.Handle) *thread { return t.(*thread) }

// Fork implements core.Backend. In the DePa order (the ADF family) a
// fork has the paper's semantics: the parent is preempted and hands its
// processor straight to the child. In a sequence order (FIFO, LIFO) it
// keeps Solaris semantics: the child is pushed and the parent runs on.
func (b *Backend) Fork(pt core.Handle, attr core.Attr, body core.Body) core.Handle {
	return b.fork(nt(pt), attr, body, false)
}

// fork is Fork with the dummy marker settable before the child can run.
func (b *Backend) fork(t *thread, attr core.Attr, body core.Body, dummy bool) *thread {
	pid := t.pid
	child := b.newThread(pid, attr, body)
	child.isDummy = dummy
	body.Bind(child)
	w := b.workers[pid]
	b.stackAlloc(w, child.stackSize)
	b.tracer.record(pid, child.ID(), trace.KindCreate, t.ID())
	b.tracer.record(pid, child.ID(), trace.KindStackAlloc, child.stackSize)
	b.admit(w)
	child.span = t.span
	// A fork touches nothing b.mu guards, so it takes no b.mu section.
	if b.shards.dir != 0 {
		child.state = core.StateReady
		b.shards.key(child)
		b.shards.push(child, pid)
		return child
	}
	// DePa order maintenance: the label assignment is the whole point of
	// the scheme — it happens here on the parent's coroutine, with zero
	// shared state. The store reads the label under a shard lock, which
	// orders the write ahead of every use.
	child.tok.Order = t.tok.Order.Fork()
	// Parent preempted; the child is the successor, no pick needed.
	t.state = core.StateReady
	at := b.tracer.now()
	b.markRunning(child, pid)
	b.shards.push(t, pid)
	t.passPark(child, at, trace.KindPreempt)
	return child
}

// Join implements core.Backend (POSIX single-joiner semantics).
func (b *Backend) Join(pt core.Handle, ptarget core.Handle) error {
	t := nt(pt)
	if ptarget == nil {
		return fmt.Errorf("native: join with nil thread")
	}
	target := nt(ptarget)
	switch {
	case target == t:
		return fmt.Errorf("native: %s cannot join itself", t.Name())
	case target.detached:
		return fmt.Errorf("native: %s is detached", target.Name())
	}
	parked, at, err := b.claimJoin(t, target)
	if err != nil {
		return err
	}
	if parked {
		b.tracer.recordAt(at, t.pid, t.ID(), trace.KindBlock, 0)
		t.blockPark()
	}
	// A join edge: the target's critical path feeds ours. exitedSpan was
	// written before the exit published the join word we read (or that
	// readied us), so it is stable here.
	if target.exitedSpan > t.span {
		t.span = target.exitedSpan
	}
	b.tracer.record(t.pid, t.ID(), trace.KindJoin, target.ID())
	// The joiner's last read of the record is above; drop its lifecycle
	// reference so the exiter (or this release) can recycle it.
	b.releaseThread(target)
	return nil
}

// The join word. A joinable thread's join holds nil while it runs
// unjoined, its joiner once one registers, and then one of two marks:
// exitedMark once it exited unjoined, joinedMark once it exited and its
// joiner has been readied or has taken the fast path. Exit and the
// joiner meet on the word alone, with no lock.
var exitedMark, joinedMark = new(thread), new(thread)

// joinStep, when set, runs before each load and CAS of a join word, with
// the thread taking the step: the model test gates the participants one
// step at a time through it.
var joinStep func(actor *thread)

func step(actor *thread) {
	if joinStep != nil {
		joinStep(actor)
	}
}

// publishExit is the exiting thread's side of t's join word, after
// exitedSpan is written: it marks t exitedMark, or joinedMark if a
// joiner registered, and returns that joiner for the caller to ready.
func (t *thread) publishExit() *thread {
	t.exitedSpan = t.span
	for {
		step(t)
		j := t.join.Load() // nil or a joiner: only exit writes a mark over either
		to := exitedMark
		if j != nil {
			to = joinedMark
		}
		step(t)
		if t.join.CompareAndSwap(j, to) {
			return j
		}
	}
}

// claimJoin is t's side of target's join word. It takes the fast path
// (exitedMark → joinedMark: the target has exited) or registers t as the
// joiner, marked blocked first; then parked is true, at is the block's
// trace stamp and t must park. A failed registration undoes the mark
// and retries.
func (b *Backend) claimJoin(t, target *thread) (parked bool, at vtime.Time, err error) {
	for {
		step(t)
		switch w := target.join.Load(); w {
		case exitedMark:
			step(t)
			if target.join.CompareAndSwap(exitedMark, joinedMark) {
				return false, 0, nil
			}
		case joinedMark:
			return false, 0, fmt.Errorf("native: %s already joined", target.Name())
		case nil:
			t.state = core.StateBlocked
			at := b.tracer.now()
			step(t)
			if target.join.CompareAndSwap(nil, t) {
				return true, at, nil
			}
			t.state = core.StateRunning
		default:
			return false, 0, fmt.Errorf("native: %s already has a joiner", target.Name())
		}
	}
}

// Exit implements core.Backend (pthread_exit).
func (b *Backend) Exit(t core.Handle) {
	core.ExitThread()
}

// Yield implements core.Backend (sched_yield).
func (b *Backend) Yield(pt core.Handle) {
	b.preemptNow(nt(pt))
}

// Charge accounts cycles of user computation against the thread's work
// and span. The cycles are bookkeeping (speedup and parallelism stay
// comparable with sim runs); native wall time passes on its own.
func (b *Backend) Charge(pt core.Handle, cycles int64) {
	if cycles <= 0 {
		return
	}
	t := nt(pt)
	d := vtime.Duration(cycles)
	t.work += d
	t.span += d
	b.workers[t.pid].stats.Work += d
}

// Malloc allocates n accounted bytes, applying the run's Quota:
// over-quota allocations fork dummy throttling threads and quota
// exhaustion preempts the caller — the mechanisms behind the
// S1 + O(p·D) bound run for real here.
func (b *Backend) Malloc(pt core.Handle, n int64) core.Alloc {
	t := nt(pt)
	if n <= 0 {
		panic(fmt.Sprintf("native: Malloc(%d)", n))
	}
	if d := b.quota.DummiesFor(n); d > 0 {
		b.workers[t.pid].dummies += int64(d)
		b.tracer.record(t.pid, t.ID(), trace.KindDummyFork, int64(d))
		core.ForkDummies(t, d, forkDummy)
	}
	addr := b.malloc(b.workers[t.pid], n)
	b.tracer.record(t.pid, t.ID(), trace.KindAlloc, n)
	a := core.Alloc{Addr: addr, Size: n}
	if b.quota.K > 0 {
		t.quotaLeft -= n
		if t.quotaLeft <= 0 {
			b.workers[t.pid].quotaPreempts++
			b.tracer.record(t.pid, t.ID(), trace.KindQuotaExhausted, n)
			b.preemptNow(t)
		}
	}
	return a
}

// Free releases an accounted allocation.
func (b *Backend) Free(pt core.Handle, a core.Alloc) {
	if a.Addr == 0 {
		return
	}
	t := nt(pt)
	w := b.workers[t.pid]
	b.account(w, &w.heap, &w.heapHWM, -a.Size)
	b.tracer.record(t.pid, t.ID(), trace.KindFree, a.Size)
}

// Touch validates the access range; the native backend has no TLB
// model to charge.
func (b *Backend) Touch(pt core.Handle, a core.Alloc, off, n int64) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > a.Size {
		panic(fmt.Sprintf("native: Touch [%d,%d) outside allocation of %d bytes", off, off+n, a.Size))
	}
}

// Prefault is a no-op natively (no page model).
func (b *Backend) Prefault(pt core.Handle, a core.Alloc) {}

// Sleep parks the thread for at least d of virtual time, mapped to wall
// time at the calibrated clock rate.
func (b *Backend) Sleep(pt core.Handle, d vtime.Duration) {
	t := nt(pt)
	if d <= 0 {
		b.preemptNow(t)
		return
	}
	b.addSleeper(1)
	b.blockPrep(t)
	time.AfterFunc(vToWall(d), func() { b.wakeSleeper(t) })
	t.blockPark()
}

// wakeSleeper readies a timer-parked thread in three phases: mark it
// ready under b.mu, push it outside (a shard lock never nests inside
// b.mu), then drop the sleeper count. sleepers stays >0 through the push
// gap so the run cannot end while the thread is in flight between the
// two structures.
func (b *Backend) wakeSleeper(t *thread) {
	b.lock()
	if b.done.Load() {
		b.sleepers--
		b.mu.Unlock()
		return
	}
	t.state = core.StateReady
	b.shards.key(t)
	b.tracer.record(-1, t.ID(), trace.KindWake, 0)
	b.mu.Unlock()
	b.shards.push(t, t.pid)
	b.addSleeper(-1)
}

// Now returns elapsed wall time as virtual cycles.
func (b *Backend) Now(pt core.Handle) vtime.Time {
	return vtime.Time(wallToV(time.Since(b.start)))
}

// forkDummy is core.ForkDummies' fork of one dummy child.
func forkDummy(h core.Handle, attr core.Attr, body core.Body) {
	t := nt(h)
	t.b.fork(t, attr, body, true)
}

// Block / wake primitives (core.Backend) for the synchronization
// objects of package exec. Native charges no synchronization cost and
// has no quantum to pause at.

func (b *Backend) SyncOp(core.Handle, string, core.SyncCost) {}
func (b *Backend) Pause(core.Handle)                         {}
func (b *Backend) BlockPrep(t core.Handle)                   { b.blockPrep(nt(t)) }
func (b *Backend) Park(t core.Handle)                        { nt(t).blockPark() }
func (b *Backend) Wake(by, w core.Handle)                    { b.readyThread(nt(w), nt(by).pid) }

// WakeAfter implements core.Backend. The pending timer counts as a
// wake source for deadlock detection until it fires or is disarmed.
func (b *Backend) WakeAfter(pt core.Handle, d vtime.Duration, claim func() bool) func() {
	t := nt(pt)
	b.addSleeper(1)
	tm := time.AfterFunc(vToWall(d), func() {
		if claim() {
			b.wakeSleeper(t)
		}
	})
	return func() {
		tm.Stop()
		b.addSleeper(-1)
	}
}

// addSleeper adjusts the count of pending timer wake sources. The run
// ends only with none pending, so when the last goes while every worker
// waits, one is woken to re-check (TestLastSleeperEndsRun).
func (b *Backend) addSleeper(d int) {
	b.lock()
	b.sleepers += d
	if b.sleepers == 0 && b.idle == b.procs {
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// spinPreemptEvery is how many failed spins pass between forced
// preemptions of a spinner.
const spinPreemptEvery = 64

// Spin implements core.Backend. A spin burns real CPU: it yields the Go
// scheduler, and every spinPreemptEvery failures passes its processor
// on, so the holder runs even when spinners outnumber processors.
func (b *Backend) Spin(t core.Handle, burst int) {
	if burst%spinPreemptEvery == spinPreemptEvery-1 {
		b.preemptNow(nt(t))
	} else {
		runtime.Gosched()
	}
}

// LockStamp implements core.Backend: wall ns since the run began, read
// only when a tracer is attached.
func (b *Backend) LockStamp(core.Handle) int64 {
	if b.tracer == nil {
		return core.NoWait
	}
	return b.sinceStart()
}

func (b *Backend) LockAcquired(pt core.Handle, stamp int64) {
	if b.tracer == nil {
		return
	}
	var waited int64
	if stamp != core.NoWait {
		waited = b.sinceStart() - stamp
	}
	t := nt(pt)
	b.tracer.record(t.pid, t.ID(), trace.KindLockAcquire, waited)
}

// JoinSpans implements core.Backend.
func (b *Backend) JoinSpans(pt core.Handle, ws []core.Handle) {
	t := nt(pt)
	for _, w := range ws {
		t.span = max(t.span, nt(w).span)
	}
	for _, w := range ws {
		nt(w).span = t.span
	}
}
