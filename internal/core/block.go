package core

import (
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Block / wake primitives, against which package exec writes the
// blocking synchronization objects once for both backends. Blocked
// threads keep their placeholder entries and re-enter the ready
// structure at their serial position when woken — the full Pthreads
// functionality the paper stresses over fork/join-only space-efficient
// systems.

// SyncCost is what one synchronization step charges its thread.
type SyncCost uint8

const (
	// CostCheck charges nothing: the step only checks that its
	// thread is running.
	CostCheck SyncCost = iota
	// CostOp is one synchronization operation (CostModel.SyncOp).
	CostOp
	// CostSemBlock is a semaphore wait's blocking surcharge: Figure 3's
	// semaphore-synchronization line less the context switch the
	// dispatcher charges and the CostOp already paid.
	CostSemBlock
)

// SyncOp panics unless t is running (op names the caller), then
// charges t the cost c.
func (m *Machine) SyncOp(t *Thread, op string, c SyncCost) {
	m.checkRunning(t, op)
	switch c {
	case CostOp:
		m.chargeOps(t, m.cm.SyncOp)
	case CostSemBlock:
		if extra := m.cm.SemaSync - m.cm.ContextSwitch - m.cm.SyncOp; extra > 0 {
			m.chargeOps(t, extra)
		}
	}
}

// Pause runs the scheduler if t has used up its quantum.
func (m *Machine) Pause(t *Thread) { t.maybePause() }

// Park blocks t until a Wake readies it.
func (m *Machine) Park(t *Thread) { t.switchOut(action{kind: actBlock}) }

// Wake readies the blocked thread w at by's processor clock, charging by
// one ready-queue operation.
func (m *Machine) Wake(by, w *Thread) {
	m.queueOp(by.proc)
	m.becomeReady(w, by.proc.id)
}

// WakeAfter parks t on the sleeper list until d from now; at the
// deadline t is readied if claim reports true. t must Park next.
func (m *Machine) WakeAfter(t *Thread, d vtime.Duration, claim func() bool) {
	m.sleepers = append(m.sleepers, sleeper{at: t.proc.clock + vtime.Time(d), t: t, claim: claim})
}

// Spin charges one busy-wait burst of a contended spin lock and lets
// the scheduler advance others; every fourth burst yields the processor
// outright, which guarantees progress when the holder is preempted and
// spinners outnumber processors.
func (m *Machine) Spin(t *Thread, burst int) {
	m.chargeWork(t, m.cm.SyncOp*4)
	if burst%4 == 3 {
		t.switchOut(action{kind: actYield})
	} else {
		t.switchOut(action{kind: actPause})
	}
}

// LockStamp returns t's processor clock, the start of a blocking mutex
// acquisition.
func (m *Machine) LockStamp(t *Thread) int64 { return int64(t.proc.clock) }

// LockAcquired traces a mutex acquisition and its blocked time since
// stamp (negative: it did not block). The waker's processor may trail
// the blocker's clock, so the wait clamps at zero.
func (m *Machine) LockAcquired(t *Thread, stamp int64) {
	tr := m.cfg.Tracer
	if tr == nil {
		return
	}
	var waited int64
	if w := int64(t.proc.clock) - stamp; stamp >= 0 && w > 0 {
		waited = w
	}
	tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindLockAcquire, waited)
}

// JoinSpan raises t's critical-path length to w's if w's is longer.
func (t *Thread) JoinSpan(w *Thread) { t.span = max(t.span, w.span) }
