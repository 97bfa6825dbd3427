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
//
// body.Bind sees the child's record as soon as it exists, before the
// policy can run the child. A detached child can run, exit and have its
// record recycled before Fork returns, so the result must not be read
// after that.
func (m *Machine) Fork(h Handle, attr Attr, body Body) Handle {
	return m.fork(h, attr, body, false)
}

// fork is Fork with the dummy marker set before the child can run.
func (m *Machine) fork(h Handle, attr Attr, body Body, dummy bool) Handle {
	t := m.checkRunning(h, "Fork")
	child := m.newThread(attr, body)
	child.isDummy = dummy
	body.Bind(child.simState)
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
	addr, cost, fresh := m.mem.AllocStack(child.attr.StackSize)
	child.stackAddr = addr
	m.chargeMem(t, cost)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, child.ID, trace.KindStackAlloc, child.attr.StackSize)
	}
	if fresh {
		// A fresh stack required mapping address space in the kernel; a
		// cached one avoided the allocator entirely.
		m.memLockWait(t, m.heapLock)
		m.memLockWait(t, m.kernelLock)
	}
	child.span = t.span
	if m.policy.OnCreate(t, child) {
		// Parent is preempted; the processor executes the child now.
		t.switchOut(action{kind: actPreempt, next: child})
		return child.simState
	}
	child.state = StateReady
	m.queueOp(t.proc)
	m.readyAt.push(t.proc.clock)
	return child.simState
}

// Join blocks until target exits. Each thread may be joined at most
// once, and detached threads cannot be joined (POSIX semantics).
func (m *Machine) Join(h Handle, th Handle) error {
	t := m.checkRunning(h, "Join")
	if th == nil {
		return fmt.Errorf("core: join with nil thread")
	}
	target := rec(th)
	switch {
	case target == t:
		return fmt.Errorf("core: %s cannot join itself", t.Name())
	case target.attr.Detached:
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
	m.release(target)
	return nil
}

// Exit terminates the calling thread from any stack depth.
func (m *Machine) Exit(h Handle) {
	m.checkRunning(h, "Exit")
	panic(threadExit{})
}

// Yield returns the calling thread to the ready structure.
func (m *Machine) Yield(h Handle) {
	m.checkRunning(h, "Yield").switchOut(action{kind: actYield})
}

// Charge accounts cycles of user computation to the calling thread.
func (m *Machine) Charge(h Handle, cycles int64) {
	if cycles <= 0 {
		return
	}
	t := m.checkRunning(h, "Charge")
	m.chargeWork(t, vtime.Duration(cycles))
	t.maybePause()
}

// Malloc allocates n bytes of simulated heap on behalf of t, applying
// the policy's memory-quota discipline: an allocation larger than the
// quota K first forks dummy threads (as a binary tree, since the fork
// primitive is binary), and exhausting the quota preempts the thread.
func (m *Machine) Malloc(h Handle, n int64) Alloc {
	t := m.checkRunning(h, "Malloc")
	if n <= 0 {
		panic(fmt.Sprintf("core: Malloc(%d)", n))
	}
	if d := m.policy.AllocDummies(n); d > 0 {
		m.forkDummies(t, d)
	}
	addr, cost, fresh := m.mem.Alloc(n)
	m.chargeMem(t, cost)
	m.memLockWait(t, m.heapLock)
	if fresh {
		m.memLockWait(t, m.kernelLock)
	}
	a := Alloc{Addr: addr, Size: n}
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindAlloc, n)
	}
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
func (m *Machine) Free(h Handle, a Alloc) {
	t := m.checkRunning(h, "Free")
	if a.Addr == 0 {
		return
	}
	m.chargeMem(t, m.mem.Free(a.Addr, a.Size))
	m.memLockWait(t, m.heapLock)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindFree, a.Size)
	}
	t.maybePause()
}

// Touch charges for accessing bytes [off, off+n) of allocation a through
// the current processor's TLB (first-touch and TLB-miss costs).
func (m *Machine) Touch(h Handle, a Alloc, off, n int64) {
	t := m.checkRunning(h, "Touch")
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
func (m *Machine) Prefault(h Handle, a Alloc) {
	m.checkRunning(h, "Prefault")
	m.mem.Prefault(a.Addr, a.Size)
}

// Sleep parks the calling thread for at least d of virtual time
// (nanosleep). The thread becomes ready at its deadline and is then
// scheduled by the policy like any woken thread.
func (m *Machine) Sleep(h Handle, d vtime.Duration) {
	t := m.checkRunning(h, "Sleep")
	if d <= 0 {
		m.Yield(h)
		return
	}
	m.sleepers = append(m.sleepers, sleeper{at: t.proc.clock + vtime.Time(d), t: t})
	t.switchOut(action{kind: actBlock})
}

// Now returns the virtual time on the calling thread's processor.
func (m *Machine) Now(h Handle) vtime.Time {
	return m.checkRunning(h, "Now").proc.clock
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
	m.forkDummySubtree(t.simState, d)
}

func (m *Machine) forkDummySubtree(h Handle, count int) {
	attr := Attr{StackSize: SmallStackSize, Detached: true}
	m.fork(h, attr, Func(func(dt Handle) {
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
	}), true)
}

// checkRunning recovers the machine's record from h, guarding against
// calling thread-context entry points from outside a running thread (a
// programming error in the host program).
func (m *Machine) checkRunning(h Handle, op string) *Thread {
	s, _ := h.(*simState)
	if s == nil || s.state != StateRunning || s.proc == nil {
		panic(fmt.Sprintf("core: %s called outside a running thread", op))
	}
	return &s.hdr
}

// rec recovers the machine's record from h.
func rec(h Handle) *Thread { return &h.(*simState).hdr }
