package core

import (
	"fmt"

	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// This file holds the runtime entry points invoked from thread context,
// i.e. inside a lightweight thread's body while every other thread is
// parked. Exactly one thread runs at a time, so these may
// mutate machine state directly; virtual time advances immediately
// through the charge helpers.

// Alloc names a simulated heap allocation.
type Alloc struct {
	Addr int64
	Size int64
}

// Fork creates a new lightweight thread running body. Under policies with
// the paper's fork semantics the caller is preempted and the processor
// runs the child immediately; otherwise the child is enqueued and the
// caller continues.
func (m *Machine) Fork(t *Thread, attr Attr, body Body) *Thread {
	m.checkRunning(t, "Fork")
	child := m.newThread(attr, body)
	// DePa order maintenance: label the child from the parent's own
	// fork path before the policy sees either thread. O(1), no shared
	// state — on the native backend the same assignment happens outside
	// the scheduler lock.
	child.Order = t.Order.Fork()
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, child.ID, trace.KindCreate, t.ID)
	}
	m.admit(child)
	m.chargeOps(t, m.cm.ThreadCreate)
	addr, cost, fresh := m.mem.AllocStack(child.stackSize)
	child.stackAddr = addr
	m.chargeMem(t, cost)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, child.ID, trace.KindStackAlloc, child.stackSize)
	}
	if fresh {
		// A fresh stack required mapping address space in the kernel; a
		// cached one avoided the allocator entirely.
		m.heapOp(t)
		m.kernelOp(t)
	}
	child.span = t.span
	if m.policy.OnCreate(t, child) {
		// Parent is preempted; the processor executes the child now.
		t.switchOut(action{kind: actPreempt, next: child})
		return child
	}
	child.state = StateReady
	m.queueOp(t.proc)
	m.readyAt.push(t.proc.clock)
	return child
}

// Join blocks until target exits. Each thread may be joined at most
// once, and detached threads cannot be joined (POSIX semantics).
func (m *Machine) Join(t *Thread, target *Thread) error {
	m.checkRunning(t, "Join")
	switch {
	case target == nil:
		return fmt.Errorf("core: join with nil thread")
	case target == t:
		return fmt.Errorf("core: %s cannot join itself", t.Name())
	case target.detached:
		return fmt.Errorf("core: %s is detached", target.Name())
	case target.joined:
		return fmt.Errorf("core: %s already joined", target.Name())
	case target.joiner != nil:
		return fmt.Errorf("core: %s already has a joiner", target.Name())
	}
	target.joined = true
	if !target.done {
		target.joiner = t
		t.switchOut(action{kind: actBlock})
	}
	m.chargeOps(t, m.cm.ThreadJoin)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindJoin, target.ID)
	}
	if target.exitedSpan > t.span {
		t.span = target.exitedSpan
	}
	return nil
}

// Exit terminates the calling thread from any stack depth.
func (m *Machine) Exit(t *Thread) {
	m.checkRunning(t, "Exit")
	panic(threadExit{})
}

// Yield returns the calling thread to the ready structure.
func (m *Machine) Yield(t *Thread) {
	m.checkRunning(t, "Yield")
	t.switchOut(action{kind: actYield})
}

// Charge accounts cycles of user computation to the calling thread.
func (m *Machine) Charge(t *Thread, cycles int64) {
	if cycles <= 0 {
		return
	}
	m.checkRunning(t, "Charge")
	m.chargeWork(t, vtime.Duration(cycles))
	t.maybePause()
}

// Malloc allocates n bytes of simulated heap on behalf of t, applying
// the policy's memory-quota discipline: an allocation larger than the
// quota K first forks dummy threads (as a binary tree, since the fork
// primitive is binary), and exhausting the quota preempts the thread.
func (m *Machine) Malloc(t *Thread, n int64) Alloc {
	m.checkRunning(t, "Malloc")
	if n <= 0 {
		panic(fmt.Sprintf("core: Malloc(%d)", n))
	}
	if d := m.policy.AllocDummies(n); d > 0 {
		m.forkDummies(t, d)
	}
	addr, cost, fresh := m.mem.Alloc(n)
	m.chargeMem(t, cost)
	m.heapOp(t)
	if fresh {
		m.kernelOp(t)
	}
	a := Alloc{Addr: addr, Size: n}
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindAlloc, n)
	}
	m.ins.allocs.Inc()
	if m.policy.Quota() > 0 {
		t.quotaLeft -= n
		if t.quotaLeft <= 0 {
			if tr := m.cfg.Tracer; tr != nil {
				tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindQuotaExhausted, n)
			}
			m.ins.quotaPreempts.Inc()
			t.switchOut(action{kind: actPreempt})
			return a
		}
	}
	t.maybePause()
	return a
}

// Free releases a simulated allocation.
func (m *Machine) Free(t *Thread, a Alloc) {
	m.checkRunning(t, "Free")
	if a.Addr == 0 {
		return
	}
	m.chargeMem(t, m.mem.Free(a.Addr, a.Size))
	m.heapOp(t)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindFree, a.Size)
	}
	m.ins.frees.Inc()
	t.maybePause()
}

// Touch charges for accessing bytes [off, off+n) of allocation a through
// the current processor's TLB (first-touch and TLB-miss costs).
func (m *Machine) Touch(t *Thread, a Alloc, off, n int64) {
	m.checkRunning(t, "Touch")
	if n <= 0 {
		return
	}
	if off < 0 || off+n > a.Size {
		panic(fmt.Sprintf("core: Touch [%d,%d) outside allocation of %d bytes", off, off+n, a.Size))
	}
	m.chargeMem(t, m.mem.Touch(t.proc.tlb, a.Addr+off, n))
	t.maybePause()
}

// Prefault marks an allocation's pages as resident without charging
// virtual time, modeling input data loaded during untimed preprocessing
// (the paper excludes preprocessing from its measurements).
func (m *Machine) Prefault(t *Thread, a Alloc) {
	m.checkRunning(t, "Prefault")
	m.mem.Prefault(a.Addr, a.Size)
}

// Sleep parks the calling thread for at least d of virtual time
// (nanosleep). The thread becomes ready at its deadline and is then
// scheduled by the policy like any woken thread.
func (m *Machine) Sleep(t *Thread, d vtime.Duration) {
	m.checkRunning(t, "Sleep")
	if d <= 0 {
		m.Yield(t)
		return
	}
	m.sleepers = append(m.sleepers, sleeper{at: t.proc.clock + vtime.Time(d), t: t})
	t.switchOut(action{kind: actBlock})
}

// Now returns the virtual time on the calling thread's processor.
func (m *Machine) Now(t *Thread) vtime.Time {
	m.checkRunning(t, "Now")
	return t.proc.clock
}

// forkDummies creates d no-op dummy threads as a binary tree rooted at a
// single child of t, mirroring the paper's throttling of allocations
// larger than the quota.
func (m *Machine) forkDummies(t *Thread, d int) {
	if d <= 0 {
		return
	}
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindDummyFork, int64(d))
	}
	m.ins.dummyForks.Add(int64(d))
	m.dummies += int64(d)
	m.forkDummySubtree(t, d)
}

func (m *Machine) forkDummySubtree(t *Thread, count int) {
	attr := Attr{StackSize: SmallStackSize, Detached: true}
	child := m.Fork(t, attr, Func(func(dt *Thread) {
		rem := count - 1
		if rem <= 0 {
			return
		}
		left := rem / 2
		right := rem - left
		if left > 0 {
			m.forkDummySubtree(dt, left)
		}
		if right > 0 {
			m.forkDummySubtree(dt, right)
		}
	}))
	child.isDummy = true
}

// checkRunning guards against calling thread-context entry points from
// outside a running thread (a programming error in the host program).
func (m *Machine) checkRunning(t *Thread, op string) {
	if t == nil || t.state != StateRunning || t.proc == nil {
		panic(fmt.Sprintf("core: %s called outside a running thread", op))
	}
}
