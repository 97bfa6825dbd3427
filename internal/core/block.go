package core

import (
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Block / wake primitives, against which package exec writes the
// blocking synchronization objects once for both backends. Blocked
// threads keep their serial position (under ADF, their DePa label) and
// re-enter the ready structure there when woken — the full Pthreads
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
func (m *Machine) SyncOp(h Handle, op string, c SyncCost) {
	t := m.checkRunning(h, op)
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
func (m *Machine) Pause(t Handle) { rec(t).maybePause() }

// BlockPrep is a no-op: only one simulated thread runs at a time, so no
// wake can land before t parks.
func (m *Machine) BlockPrep(Handle) {}

// Park blocks t until a Wake readies it.
func (m *Machine) Park(t Handle) { rec(t).switchOut(action{kind: actBlock}) }

// Wake readies the blocked thread w at by's processor clock, charging by
// one ready-queue operation.
func (m *Machine) Wake(by, w Handle) {
	p := rec(by).proc
	m.queueOp(p)
	m.becomeReady(rec(w), p.id)
}

// WakeAfter parks t on the sleeper list until d from now; at the
// deadline t is readied if claim reports true. t must Park next. A
// signal leaves the sleeper entry in place for claim to void, so there
// is nothing to disarm.
func (m *Machine) WakeAfter(h Handle, d vtime.Duration, claim func() bool) func() {
	t := rec(h)
	m.sleepers = append(m.sleepers, sleeper{at: t.proc.clock + vtime.Time(d), t: t, claim: claim})
	return nil
}

// Spin charges one busy-wait burst of a contended spin lock and lets
// the scheduler advance others; every fourth burst yields the processor
// outright, which guarantees progress when the holder is preempted and
// spinners outnumber processors.
func (m *Machine) Spin(h Handle, burst int) {
	t := rec(h)
	m.chargeWork(t, m.cm.SyncOp*4)
	if burst%4 == 3 {
		t.switchOut(action{kind: actYield})
	} else {
		t.switchOut(action{kind: actPause})
	}
}

// LockStamp returns t's processor clock, the start of a blocking mutex
// acquisition.
func (m *Machine) LockStamp(t Handle) int64 { return int64(rec(t).proc.clock) }

// LockAcquired traces a mutex acquisition and its blocked time since
// stamp (negative: it did not block). The waker's processor may trail
// the blocker's clock, so the wait clamps at zero.
func (m *Machine) LockAcquired(h Handle, stamp int64) {
	tr := m.cfg.Tracer
	if tr == nil {
		return
	}
	t := rec(h)
	var waited int64
	if w := int64(t.proc.clock) - stamp; stamp >= 0 && w > 0 {
		waited = w
	}
	tr.RecordArg(t.proc.clock, t.proc.id, t.ID, trace.KindLockAcquire, waited)
}

// JoinSpans first raises t's critical-path length to the longest of
// ws's, then hands it to every party.
func (m *Machine) JoinSpans(h Handle, ws []Handle) {
	t := rec(h)
	for _, w := range ws {
		t.span = max(t.span, rec(w).span)
	}
	for _, w := range ws {
		rec(w).span = t.span
	}
}
