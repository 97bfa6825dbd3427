package native

import (
	"fmt"
	"runtime"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Thread-facing operations (exec.Backend). All run in thread context:
// in the body of the thread passed as the first argument, while
// that thread holds a processor.

// nt unwraps an exec.Thread to this backend's representation.
func nt(t exec.Thread) *thread { return t.(*thread) }

// Fork implements exec.Backend. Under policies with the paper's fork
// semantics (OnCreate returns true) the parent is preempted and hands
// its processor straight to the child.
func (b *Backend) Fork(pt exec.Thread, attr core.Attr, body exec.Body) exec.Thread {
	return b.fork(nt(pt), attr, body, false)
}

// fork is Fork with the dummy marker settable before the child can run.
func (b *Backend) fork(t *thread, attr core.Attr, body exec.Body, dummy bool) *thread {
	pid := t.pid
	child := b.newThread(pid, attr, body)
	child.isDummy = dummy
	body.Bind(child)
	// DePa order maintenance: the label assignment is the whole point of
	// the scheme — it happens here on the parent's coroutine, before the
	// scheduler lock, with zero shared state. The policy reads the label
	// under b.mu, which orders the write ahead of every use.
	child.tok.Order = t.tok.Order.Fork()
	b.mem.allocStack(child.stackSize)
	b.tracer.record(pid, child.ID(), trace.KindCreate, t.ID())
	b.tracer.record(pid, child.ID(), trace.KindStackAlloc, child.stackSize)
	b.lock()
	b.admit(child)
	child.span = t.span
	// The sharded store always has the paper's fork semantics.
	if b.shards == nil && !b.policy.OnCreate(&t.tok, &child.tok) {
		// The policy placed the child in its ready structure.
		child.state = core.StateReady
		b.noteReady(child)
		b.cond.Signal()
		b.mu.Unlock()
		return child
	}
	// Parent preempted; the child is the successor, no pick needed.
	t.state = core.StateReady
	b.addRunning(-1)
	at := b.tracer.now()
	if b.shards == nil {
		b.policy.OnReady(&t.tok, pid)
		b.noteReady(t)
		b.cond.Signal() // the parent is dispatchable by another processor
	}
	b.markRunning(child, pid)
	b.mu.Unlock()
	if b.shards != nil {
		// The parent goes to this processor's shard, after the b.mu
		// section so it is invisible to thieves until every mu-guarded
		// write above landed.
		b.shards.push(t, pid)
	}
	t.passPark(child, at, trace.KindPreempt)
	return child
}

// Join implements exec.Backend (POSIX single-joiner semantics).
func (b *Backend) Join(pt exec.Thread, ptarget exec.Thread) error {
	t := nt(pt)
	if ptarget == nil {
		return fmt.Errorf("native: join with nil thread")
	}
	target := nt(ptarget)
	b.lock()
	switch {
	case target == t:
		b.mu.Unlock()
		return fmt.Errorf("native: %s cannot join itself", t.Name())
	case target.detached:
		b.mu.Unlock()
		return fmt.Errorf("native: %s is detached", target.Name())
	case target.joined:
		b.mu.Unlock()
		return fmt.Errorf("native: %s already joined", target.Name())
	case target.joiner != nil:
		b.mu.Unlock()
		return fmt.Errorf("native: %s already has a joiner", target.Name())
	}
	target.joined = true
	if !target.done {
		target.joiner = t
		t.state = core.StateBlocked
		if b.shards == nil {
			b.policy.OnBlock(&t.tok)
		}
		b.addRunning(-1)
		at := b.tracer.now()
		next := b.pick(t.pid)
		b.mu.Unlock()
		t.passPark(next, at, trace.KindBlock)
	} else {
		b.mu.Unlock()
	}
	// A join edge: the target's critical path feeds ours. target.done
	// was set before we were readied (or before we observed it under
	// b.mu), so exitedSpan is stable here.
	if target.exitedSpan > t.span {
		t.span = target.exitedSpan
	}
	b.tracer.record(t.pid, t.ID(), trace.KindJoin, target.ID())
	// The joiner's last read of the record is above; drop its lifecycle
	// reference so the exiter (or this release) can recycle it.
	b.releaseThread(target)
	return nil
}

// Exit implements exec.Backend (pthread_exit).
func (b *Backend) Exit(t exec.Thread) {
	core.ExitThread()
}

// Yield implements exec.Backend (sched_yield).
func (b *Backend) Yield(pt exec.Thread) {
	b.preemptNow(nt(pt))
}

// Charge accounts cycles of user computation against the thread's work
// and span. The cycles are bookkeeping (speedup and parallelism stay
// comparable with sim runs); native wall time passes on its own.
func (b *Backend) Charge(pt exec.Thread, cycles int64) {
	if cycles <= 0 {
		return
	}
	t := nt(pt)
	d := vtime.Duration(cycles)
	t.work += d
	t.span += d
	b.workers[t.pid].stats.Work += d
}

// Malloc allocates n accounted bytes, applying the policy's quota
// discipline: over-quota allocations fork dummy throttling threads and
// quota exhaustion preempts the caller — the mechanisms behind the
// S1 + O(p·D) bound run for real here.
func (b *Backend) Malloc(pt exec.Thread, n int64) core.Alloc {
	t := nt(pt)
	if n <= 0 {
		panic(fmt.Sprintf("native: Malloc(%d)", n))
	}
	if d := b.policy.AllocDummies(n); d > 0 {
		b.forkDummies(t, d)
	}
	addr := b.mem.allocHeap(n)
	b.allocTally.Add(1)
	b.tracer.record(t.pid, t.ID(), trace.KindAlloc, n)
	a := core.Alloc{Addr: addr, Size: n}
	if b.quota > 0 {
		t.quotaLeft -= n
		if t.quotaLeft <= 0 {
			b.quotaTally.Add(1)
			b.tracer.record(t.pid, t.ID(), trace.KindQuotaExhausted, n)
			b.preemptNow(t)
		}
	}
	return a
}

// Free releases an accounted allocation.
func (b *Backend) Free(pt exec.Thread, a core.Alloc) {
	if a.Addr == 0 {
		return
	}
	t := nt(pt)
	b.mem.freeHeap(a.Size)
	b.freeTally.Add(1)
	b.tracer.record(t.pid, t.ID(), trace.KindFree, a.Size)
}

// Touch validates the access range; the native backend has no TLB
// model to charge.
func (b *Backend) Touch(pt exec.Thread, a core.Alloc, off, n int64) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > a.Size {
		panic(fmt.Sprintf("native: Touch [%d,%d) outside allocation of %d bytes", off, off+n, a.Size))
	}
}

// Prefault is a no-op natively (no page model).
func (b *Backend) Prefault(pt exec.Thread, a core.Alloc) {}

// Sleep parks the thread for at least d of virtual time, mapped to wall
// time at the calibrated clock rate.
func (b *Backend) Sleep(pt exec.Thread, d vtime.Duration) {
	t := nt(pt)
	if d <= 0 {
		b.preemptNow(t)
		return
	}
	b.lock()
	t.state = core.StateBlocked
	if b.shards == nil {
		b.policy.OnBlock(&t.tok)
	}
	b.addRunning(-1)
	b.sleepers++
	at := b.tracer.now()
	next := b.pick(t.pid)
	b.mu.Unlock()
	time.AfterFunc(vToWall(d), func() { b.wakeSleeper(t) })
	t.passPark(next, at, trace.KindBlock)
}

// wakeSleeper readies a timer-parked thread.
func (b *Backend) wakeSleeper(t *thread) {
	if b.shards != nil {
		// Three-phase sharded wake: mark ready under b.mu, push outside
		// it (the shard lock never nests inside b.mu), then drop the
		// sleeper count. sleepers stays >0 through the push gap so the
		// deadlock detector cannot fire while the thread is in flight
		// between the two structures.
		b.lock()
		if b.done {
			b.sleepers--
			b.mu.Unlock()
			return
		}
		t.state = core.StateReady
		b.tracer.record(-1, t.ID(), trace.KindWake, 0)
		b.mu.Unlock()
		b.shards.push(t, t.pid)
		b.lock()
		b.sleepers--
		b.mu.Unlock()
		return
	}
	b.lock()
	b.sleepers--
	if b.done {
		b.mu.Unlock()
		return
	}
	t.state = core.StateReady
	b.policy.OnReady(&t.tok, -1)
	b.noteReady(t)
	b.tracer.record(-1, t.ID(), trace.KindWake, 0)
	b.cond.Signal()
	b.mu.Unlock()
}

// Now returns elapsed wall time as virtual cycles.
func (b *Backend) Now(pt exec.Thread) vtime.Time {
	return vtime.Time(wallToV(time.Since(b.start)))
}

// forkDummies creates d no-op dummy threads as a binary tree rooted at
// a single child of t, mirroring the paper's allocation throttling:
// because each dummy fork preempts its parent under ADF, the
// allocating thread re-enters the ready list behind the dummies and
// other, lower-footprint threads get scheduled first.
func (b *Backend) forkDummies(t *thread, d int) {
	if d <= 0 {
		return
	}
	b.dummyTally.Add(int64(d))
	b.tracer.record(t.pid, t.ID(), trace.KindDummyFork, int64(d))
	b.forkDummySubtree(t, d)
}

func (b *Backend) forkDummySubtree(t *thread, count int) {
	attr := core.Attr{StackSize: core.SmallStackSize, Detached: true}
	b.fork(t, attr, exec.Func(func(dt exec.Thread) {
		rem := count - 1
		if rem <= 0 {
			return
		}
		left := rem / 2
		right := rem - left
		if left > 0 {
			b.forkDummySubtree(nt(dt), left)
		}
		if right > 0 {
			b.forkDummySubtree(nt(dt), right)
		}
	}), true)
}

// Block / wake primitives (exec.Backend) for the synchronization
// objects of package exec. Native charges no synchronization cost and
// has no quantum to pause at.

func (b *Backend) SyncOp(exec.Thread, string, core.SyncCost) {}
func (b *Backend) Pause(exec.Thread)                         {}
func (b *Backend) BlockPrep(t exec.Thread)                   { b.blockPrep(nt(t)) }
func (b *Backend) Park(t exec.Thread)                        { nt(t).blockPark() }
func (b *Backend) Wake(by, w exec.Thread)                    { b.readyThread(nt(w), nt(by).pid) }

// WakeAfter implements exec.Backend. The pending timer counts as a
// wake source for deadlock detection until it fires or is disarmed.
func (b *Backend) WakeAfter(pt exec.Thread, d vtime.Duration, claim func() bool) func() {
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

// addSleeper adjusts the count of pending timer wake sources.
func (b *Backend) addSleeper(d int) {
	b.lock()
	b.sleepers += d
	b.mu.Unlock()
}

// spinPreemptEvery is how many failed spins pass between forced
// preemptions of a spinner.
const spinPreemptEvery = 64

// Spin implements exec.Backend. A spin burns real CPU: it yields the Go
// scheduler, and every spinPreemptEvery failures passes its processor
// on, so the holder runs even when spinners outnumber processors.
func (b *Backend) Spin(t exec.Thread, burst int) {
	if burst%spinPreemptEvery == spinPreemptEvery-1 {
		b.preemptNow(nt(t))
	} else {
		runtime.Gosched()
	}
}

// LockStamp implements exec.Backend: wall ns since the run began, read
// only when a mutex-wait instrument is attached.
func (b *Backend) LockStamp(exec.Thread) int64 {
	if b.mutexWait == nil && b.tracer == nil {
		return exec.NoWait
	}
	return b.sinceStart()
}

func (b *Backend) LockAcquired(pt exec.Thread, stamp int64) {
	var waited int64
	if stamp != exec.NoWait {
		waited = b.sinceStart() - stamp
	}
	t := nt(pt)
	b.mutexWait.Observe(waited)
	b.tracer.record(t.pid, t.ID(), trace.KindLockAcquire, waited)
}

// JoinSpans implements exec.Backend.
func (b *Backend) JoinSpans(pt exec.Thread, ws []exec.Thread) {
	t := nt(pt)
	for _, w := range ws {
		t.span = max(t.span, nt(w).span)
	}
	for _, w := range ws {
		nt(w).span = t.span
	}
}
