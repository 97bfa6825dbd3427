package pthread_test

import (
	"runtime"
	"strings"
	"testing"

	"spthreads/internal/leakcheck"
	"spthreads/pthread"
)

// TestStaleHandles: a handle keeps answering after the backend is done
// with its thread. A joined thread and an exited detached thread are
// followed by 64 more threads, which on either backend reuse their
// recycled records. ID still reads each thread's own id, and a second
// Join through the Create handle or through the Self handle the child
// passed out fails as already joined, as does joining the detached
// thread; the run neither deadlocks nor leaves a goroutine behind. At
// p = 1 under ADF each child runs to its exit before its creator
// resumes.
func TestStaleHandles(t *testing.T) {
	for _, backend := range pthread.Backends() {
		t.Run(string(backend), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := pthread.Config{Procs: 1, Backend: backend, DefaultStack: pthread.SmallStackSize}
			_, err := pthread.Run(cfg, func(tt *pthread.T) {
				var self *pthread.Thread
				h := tt.Create(func(ct *pthread.T) { self = ct.Self() })
				id := h.ID()
				tt.MustJoin(h)
				d := tt.CreateAttr(pthread.Attr{Detached: true}, func(*pthread.T) {})
				dID := d.ID()
				hs := make([]*pthread.Thread, 64)
				for i := range hs {
					hs[i] = tt.Create(func(*pthread.T) {})
				}
				tt.JoinAll(hs...)

				if self != h {
					t.Errorf("Self() returned a different handle from Create's")
				}
				if h.ID() != id || d.ID() != dID {
					t.Errorf("IDs changed after exit: joined %d -> %d, detached %d -> %d", id, h.ID(), dID, d.ID())
				}
				if err := tt.Join(h); err == nil || !strings.Contains(err.Error(), "already joined") {
					t.Errorf("second Join through the Create handle: %v, want already joined", err)
				}
				if err := tt.Join(self); err == nil || !strings.Contains(err.Error(), "already joined") {
					t.Errorf("second Join through the Self handle: %v, want already joined", err)
				}
				if err := tt.Join(d); err == nil {
					t.Errorf("Join of an exited detached thread succeeded")
				}
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			leakcheck.AssertNoLeakedGoroutines(t, base)
		})
	}
}

// TestDummyBurstThenCreate: an allocation above ADF's quota K forks
// detached dummy threads, whose records are recycled as they exit,
// possibly before the allocating thread's Malloc returns. The
// allocating thread's next Create and Join still get a fresh thread:
// its body runs once, under the id its handle reports, and a second
// Join fails as already joined.
func TestDummyBurstThenCreate(t *testing.T) {
	for _, backend := range pthread.Backends() {
		t.Run(string(backend), func(t *testing.T) {
			cfg := pthread.Config{Procs: 1, Backend: backend, DefaultStack: pthread.SmallStackSize}
			st, err := pthread.Run(cfg, func(tt *pthread.T) {
				for round := 0; round < 4; round++ {
					a := tt.Malloc(8 * pthread.DefaultMemQuota)
					runs, seen := 0, int64(0)
					h := tt.Create(func(ct *pthread.T) { runs++; seen = ct.ID() })
					if err := tt.Join(h); err != nil {
						t.Errorf("round %d: Join: %v", round, err)
					}
					if runs != 1 || seen != h.ID() {
						t.Errorf("round %d: body ran %d times as thread %d, handle says %d", round, runs, seen, h.ID())
					}
					if err := tt.Join(h); err == nil || !strings.Contains(err.Error(), "already joined") {
						t.Errorf("round %d: second Join: %v, want already joined", round, err)
					}
					tt.Free(a)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.DummyThreads == 0 {
				t.Fatal("no dummy threads were forked")
			}
		})
	}
}
