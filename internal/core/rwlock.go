package core

import "fmt"

// RWMutex is a writer-preferring readers-writer lock
// (pthread_rwlock_t). Writer preference matches the common Solaris
// implementation: once a writer is queued, new readers wait, preventing
// writer starvation.
type RWMutex struct {
	readers     int // active readers
	writer      *Thread
	waitReaders []*Thread
	waitWriters []*Thread
}

// RLock acquires the lock for reading, blocking while a writer holds or
// awaits it.
func (m *Machine) RLock(t *Thread, rw *RWMutex) {
	m.checkRunning(t, "RLock")
	m.chargeOps(t, m.cm.SyncOp)
	t.maybePause()
	if rw.writer == nil && len(rw.waitWriters) == 0 {
		rw.readers++
		return
	}
	rw.waitReaders = append(rw.waitReaders, t)
	t.switchOut(action{kind: actBlock})
	// The releasing writer admitted us and incremented readers.
}

// RUnlock releases a read hold; the last reader admits a waiting writer.
func (m *Machine) RUnlock(t *Thread, rw *RWMutex) {
	m.checkRunning(t, "RUnlock")
	if rw.readers <= 0 {
		panic(fmt.Sprintf("core: %s RUnlock with no active readers", t.Name()))
	}
	m.chargeOps(t, m.cm.SyncOp)
	rw.readers--
	if rw.readers == 0 {
		m.admitNextRW(t, rw)
	}
	t.maybePause()
}

// WLock acquires the lock exclusively.
func (m *Machine) WLock(t *Thread, rw *RWMutex) {
	m.checkRunning(t, "WLock")
	m.chargeOps(t, m.cm.SyncOp)
	t.maybePause()
	if rw.writer == nil && rw.readers == 0 {
		rw.writer = t
		return
	}
	if rw.writer == t {
		panic(fmt.Sprintf("core: %s write-locking an rwlock it already holds", t.Name()))
	}
	rw.waitWriters = append(rw.waitWriters, t)
	t.switchOut(action{kind: actBlock})
	if rw.writer != t {
		panic("core: woken from WLock without ownership")
	}
}

// WUnlock releases the exclusive hold, admitting the next writer or all
// waiting readers.
func (m *Machine) WUnlock(t *Thread, rw *RWMutex) {
	m.checkRunning(t, "WUnlock")
	if rw.writer != t {
		panic(fmt.Sprintf("core: %s WUnlock of an rwlock it does not hold", t.Name()))
	}
	m.chargeOps(t, m.cm.SyncOp)
	rw.writer = nil
	m.admitNextRW(t, rw)
	t.maybePause()
}

// admitNextRW hands a free rwlock to the next waiting writer (preferred)
// or to every waiting reader.
func (m *Machine) admitNextRW(t *Thread, rw *RWMutex) {
	if len(rw.waitWriters) > 0 {
		w := rw.waitWriters[0]
		copy(rw.waitWriters, rw.waitWriters[1:])
		rw.waitWriters = rw.waitWriters[:len(rw.waitWriters)-1]
		rw.writer = w
		m.queueOp(t.proc)
		m.becomeReady(w, t.proc.id)
		return
	}
	for _, r := range rw.waitReaders {
		rw.readers++
		m.queueOp(t.proc)
		m.becomeReady(r, t.proc.id)
	}
	rw.waitReaders = rw.waitReaders[:0]
}

// SpinLock models pthread_spinlock_t: acquisition never deschedules the
// thread; instead contended acquisition burns processor time until the
// holder releases. On the simulated machine "spinning" is charged as the
// wait implied by the contention model plus a fixed spin cost, keeping
// the thread on its processor (which is the point of a spin lock — and
// its danger: the spinner's processor does no useful work).
type SpinLock struct {
	holder *Thread
	spins  int64
}

// SpinAcquire takes the spin lock. If it is held, the caller charges
// busy-wait time and retries; every few bursts it yields the processor
// entirely (back-off), which also guarantees progress when the holder
// is preempted and the machine has fewer processors than spinners.
func (m *Machine) SpinAcquire(t *Thread, sl *SpinLock) {
	m.checkRunning(t, "SpinAcquire")
	m.chargeOps(t, m.cm.SyncOp)
	for burst := 0; sl.holder != nil; burst++ {
		sl.spins++
		// Busy-wait burst, then let the scheduler advance others.
		m.chargeWork(t, m.cm.SyncOp*4)
		if burst%4 == 3 {
			t.switchOut(action{kind: actYield})
		} else {
			t.switchOut(action{kind: actPause})
		}
	}
	sl.holder = t
}

// SpinRelease frees the spin lock.
func (m *Machine) SpinRelease(t *Thread, sl *SpinLock) {
	m.checkRunning(t, "SpinRelease")
	if sl.holder != t {
		panic(fmt.Sprintf("core: %s releasing a spin lock it does not hold", t.Name()))
	}
	m.chargeOps(t, m.cm.SyncOp)
	sl.holder = nil
}

// Spins reports how many busy-wait bursts contended acquisitions cost.
func (sl *SpinLock) Spins() int64 { return sl.spins }
