package exec

// A small-scope model check of the mutex word (sync.go): a holder that
// unlocks and two lockers that each lock, step once inside the critical
// section and unlock, gated one word access or m.mu acquisition at a
// time through mutexStep. The explorer enumerates every interleaving of
// their steps; each participant runs the shipped Lock and Unlock.

import (
	"slices"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/modelcheck"
)

// mutexModel is the backend of one interleaving: Park is a step enabled
// once a Wake has handed the thread the lock.
type mutexModel struct {
	core.Backend
	s                  *modelcheck.Sched
	registered, handed []core.Handle
}

func (f *mutexModel) SyncOp(core.Handle, string, core.SyncCost) {}
func (f *mutexModel) Pause(core.Handle)                         {}
func (f *mutexModel) LockStamp(core.Handle) int64               { return 0 }
func (f *mutexModel) LockAcquired(core.Handle, int64)           {}
func (f *mutexModel) BlockPrep(t core.Handle)                   { f.registered = append(f.registered, t) }
func (f *mutexModel) Wake(_, w core.Handle)                     { f.handed = append(f.handed, w) }

func (f *mutexModel) Park(t core.Handle) {
	f.s.Step(int(t.ID())-1, func() bool { return slices.Contains(f.handed, t) })
}

// TestMutexWordModel enumerates every interleaving of a holder
// unlocking against two lockers and checks each: at most one thread is
// inside the critical section, and the word names it there; the
// lockers that registered as waiters are handed the lock once each, in
// registration order; no thread is left parked; and the word ends 0
// with no waiter left. Both lockers must block in some interleavings
// and neither in others.
func TestMutexWordModel(t *testing.T) {
	defer func() { mutexStep = nil }()
	ts := []*thread{{1, "holder"}, {2, "locker2"}, {3, "locker3"}}
	waited := map[int]int{} // interleavings by number of lockers that blocked
	runs := modelcheck.Explore(t, func(s *modelcheck.Sched) ([]func(), func()) {
		m, f := &Mutex{}, &mutexModel{s: s}
		m.word.Store(ts[0].ID() << 1)
		inside := 0
		muFree := func() bool {
			if m.mu.TryLock() {
				m.mu.Unlock()
				return true
			}
			return false
		}
		mutexStep = func(t core.Handle, locking bool) {
			var enabled func() bool
			if locking {
				enabled = muFree
			}
			s.Step(int(t.ID())-1, enabled)
		}
		bodies := make([]func(), len(ts))
		for i, th := range ts {
			bodies[i] = func() {
				if i > 0 {
					m.Lock(f, th)
				}
				if inside++; inside > 1 || !m.holds(th) {
					t.Errorf("steps %v: %s entered with %d inside, word %#x", s.Order, th.name, inside, m.word.Load())
				}
				s.Step(i, nil)
				inside--
				m.Unlock(f, th)
			}
		}
		return bodies, func() {
			if !slices.Equal(f.handed, f.registered) {
				t.Errorf("steps %v: waiters %v registered, %v handed the lock", s.Order, f.registered, f.handed)
			}
			if w := m.word.Load(); w != 0 || len(m.waiters) != 0 {
				t.Errorf("steps %v: word ends %#x with %d waiters, want 0 and none", s.Order, w, len(m.waiters))
			}
			waited[len(f.registered)]++
		}
	})
	t.Logf("%d interleavings; by lockers blocked: %v", runs, waited)
	if waited[0] == 0 || waited[2] == 0 {
		t.Errorf("lockers blocked %v: want interleavings where neither and where both block", waited)
	}
}
