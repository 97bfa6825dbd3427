package pthread

import "spthreads/internal/exec"

// RWMutex is a writer-preferring readers-writer lock
// (pthread_rwlock_t). The zero value is unlocked.
type RWMutex struct {
	rw exec.RWMutex
}

// RLock acquires the lock for reading; multiple readers may hold it
// concurrently.
func (l *RWMutex) RLock(t *T) { l.rw.RLock(t.b, t.th) }

// RUnlock releases a read hold.
func (l *RWMutex) RUnlock(t *T) { l.rw.RUnlock(t.b, t.th) }

// Lock acquires the lock exclusively for writing.
func (l *RWMutex) Lock(t *T) { l.rw.WLock(t.b, t.th) }

// Unlock releases the write hold.
func (l *RWMutex) Unlock(t *T) { l.rw.WUnlock(t.b, t.th) }

// SpinLock is a busy-waiting lock (pthread_spinlock_t): contended
// acquisition burns processor time instead of descheduling. The zero
// value is unlocked.
type SpinLock struct {
	sl exec.SpinLock
}

// Acquire takes the spin lock, busy-waiting while it is held.
func (l *SpinLock) Acquire(t *T) { l.sl.Acquire(t.b, t.th) }

// Release frees the spin lock.
func (l *SpinLock) Release(t *T) { l.sl.Release(t.b, t.th) }

// Spins reports the number of busy-wait bursts so far (a contention
// diagnostic).
func (l *SpinLock) Spins() int64 { return l.sl.Spins() }
