package pthread_test

import (
	"testing"

	"spthreads/pthread"
)

// TestRWMutexReadersShare: a writer excludes everyone, and every write
// lands. On the sim, whose schedule is fixed, concurrent readers are
// also seen to overlap.
func TestRWMutexReadersShare(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var rw pthread.RWMutex
		var mu pthread.Mutex
		activeReaders, maxReaders := 0, 0
		writerActive := false
		violated := false
		writes := 0

		cfg := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			var hs []*pthread.Thread
			for i := 0; i < 6; i++ {
				hs = append(hs, tt.Create(func(ct *pthread.T) {
					for k := 0; k < 5; k++ {
						rw.RLock(ct)
						mu.Lock(ct)
						activeReaders++
						if activeReaders > maxReaders {
							maxReaders = activeReaders
						}
						if writerActive {
							violated = true
						}
						mu.Unlock(ct)
						// Longer than the interleaving quantum so overlap is
						// observable in the instrumentation counters.
						ct.Charge(100000)
						mu.Lock(ct)
						activeReaders--
						mu.Unlock(ct)
						rw.RUnlock(ct)
					}
				}))
			}
			for i := 0; i < 2; i++ {
				hs = append(hs, tt.Create(func(ct *pthread.T) {
					for k := 0; k < 3; k++ {
						rw.Lock(ct)
						mu.Lock(ct)
						if activeReaders > 0 || writerActive {
							violated = true
						}
						writerActive = true
						mu.Unlock(ct)
						ct.Charge(100000)
						writes++
						mu.Lock(ct)
						writerActive = false
						mu.Unlock(ct)
						rw.Unlock(ct)
					}
				}))
			}
			tt.JoinAll(hs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if violated {
			t.Error("rwlock exclusion violated")
		}
		if writes != 6 {
			t.Errorf("writes = %d, want 6", writes)
		}
		if backend == pthread.BackendSim && maxReaders < 2 {
			t.Errorf("max concurrent readers = %d; readers never overlapped", maxReaders)
		}
	})
}

// TestRWMutexWriterPreference: with a writer waiting, later readers
// queue behind it.
func TestRWMutexWriterPreference(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var rw pthread.RWMutex
		var order []byte
		_, err := pthread.Run(pthread.Config{Backend: backend, Procs: 1, Policy: pthread.PolicyFIFO}, func(tt *pthread.T) {
			rw.RLock(tt) // hold as reader so the writer must queue
			w := tt.Create(func(ct *pthread.T) {
				rw.Lock(ct)
				order = append(order, 'w')
				rw.Unlock(ct)
			})
			tt.Yield() // let the writer block
			r := tt.Create(func(ct *pthread.T) {
				rw.RLock(ct) // must wait behind the queued writer
				order = append(order, 'r')
				rw.RUnlock(ct)
			})
			tt.Yield() // let the reader block too
			rw.RUnlock(tt)
			tt.JoinAll(w, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(order) != "wr" {
			t.Errorf("order = %q, want writer first (writer preference)", order)
		}
	})
}

// TestSpinLockExclusion: spin locks provide mutual exclusion and record
// contention.
func TestSpinLockExclusion(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var sl pthread.SpinLock
		counter := 0
		_, err := pthread.Run(pthread.Config{Backend: backend, Procs: 4, Policy: stealing(backend)}, func(tt *pthread.T) {
			fns := make([]func(*pthread.T), 8)
			for i := range fns {
				fns[i] = func(ct *pthread.T) {
					for k := 0; k < 20; k++ {
						sl.Acquire(ct)
						counter++
						ct.Charge(200)
						sl.Release(ct)
					}
				}
			}
			tt.Par(fns...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if counter != 160 {
			t.Errorf("counter = %d, want 160", counter)
		}
		if sl.Spins() == 0 {
			t.Log("note: no contention observed (schedule-dependent, not a failure)")
		}
	})
}

// TestSpinLockSingleProc: a spinner must not monopolize the only
// processor while the holder waits to run (back-off works).
func TestSpinLockSingleProc(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var sl pthread.SpinLock
		done := false
		_, err := pthread.Run(pthread.Config{Backend: backend, Procs: 1, Policy: pthread.PolicyFIFO}, func(tt *pthread.T) {
			sl.Acquire(tt)
			h := tt.Create(func(ct *pthread.T) {
				sl.Acquire(ct) // spins while root holds it
				done = true
				sl.Release(ct)
			})
			tt.Yield() // hand the processor to the spinner
			sl.Release(tt)
			tt.MustJoin(h)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Error("spinner never acquired the lock")
		}
	})
}
