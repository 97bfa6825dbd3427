package pthread_test

import (
	"testing"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// TestSleepAdvancesVirtualTime: an idle machine jumps straight to the
// sleeper's deadline.
func TestSleepAdvancesVirtualTime(t *testing.T) {
	st, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		tt.Sleep(vtime.Micro(50_000)) // 50 virtual ms on an idle machine
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Time < vtime.Micro(50_000) {
		t.Errorf("makespan %v, want >= 50ms (sleep deadline)", st.Time)
	}
	if st.Time > vtime.Micro(52_000) {
		t.Errorf("makespan %v, want ~50ms (sleep should not add busy time)", st.Time)
	}
}

// TestSleepOrdering: staggered sleepers wake in deadline order.
func TestSleepOrdering(t *testing.T) {
	var order []int
	_, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyFIFO}, func(tt *pthread.T) {
		var hs []*pthread.Thread
		for _, d := range []struct {
			id int
			us float64
		}{{3, 30_000}, {1, 10_000}, {2, 20_000}} {
			d := d
			hs = append(hs, tt.Create(func(ct *pthread.T) {
				ct.SleepMicros(d.us)
				order = append(order, d.id)
			}))
		}
		tt.JoinAll(hs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("wake order = %v, want [1 2 3]", order)
	}
}

// TestSleepersAreNotDeadlock: a machine with only sleepers must not be
// reported as deadlocked.
func TestSleepersAreNotDeadlock(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		h := tt.Create(func(ct *pthread.T) {
			ct.SleepMicros(5_000)
		})
		tt.MustJoin(h)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSleepWithBusyProcs: sleepers wake while other work runs; total
// time is governed by the longer of the two.
func TestSleepWithBusyProcs(t *testing.T) {
	st, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		sleeper := tt.Create(func(ct *pthread.T) {
			ct.SleepMicros(10_000)
			ct.Charge(int64(vtime.Micro(1_000)))
		})
		tt.Charge(int64(vtime.Micro(30_000))) // busy the other processor
		tt.MustJoin(sleeper)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Time < vtime.Micro(30_000) || st.Time > vtime.Micro(33_000) {
		t.Errorf("makespan %v, want ~30ms (busy work dominates)", st.Time)
	}
}

// TestPeriodicThread: the classic sleep-loop daemon pattern works.
func TestPeriodicThread(t *testing.T) {
	ticks := 0
	st, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		h := tt.Create(func(ct *pthread.T) {
			for i := 0; i < 5; i++ {
				ct.SleepMicros(2_000)
				ticks++
			}
		})
		tt.MustJoin(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if st.Time < vtime.Micro(10_000) {
		t.Errorf("makespan %v, want >= 10ms (5 periods)", st.Time)
	}
}

// TestCondWaitTimeout: a timed wait with no signal times out at its
// deadline and still holds the mutex.
func TestCondWaitTimeout(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var mu pthread.Mutex
		var cv pthread.Cond
		var timedOut bool
		cfg := pthread.Config{Procs: 1, Policy: pthread.PolicyADF, Backend: backend}
		st, err := pthread.Run(cfg, func(tt *pthread.T) {
			mu.Lock(tt)
			timedOut = cv.WaitTimeout(tt, &mu, vtime.Micro(20_000))
			mu.Unlock(tt)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !timedOut {
			t.Error("wait did not time out")
		}
		if backend == pthread.BackendSim && st.Time < vtime.Micro(20_000) {
			t.Errorf("makespan %v, want >= the 20ms deadline", st.Time)
		}
	})
}

// TestCondWaitSignalBeatsTimeout: a signal well before the deadline
// wakes the waiter without a timeout.
func TestCondWaitSignalBeatsTimeout(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var mu pthread.Mutex
		var cv pthread.Cond
		var timedOut bool
		ready := false
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		st, err := pthread.Run(cfg, func(tt *pthread.T) {
			w := tt.Create(func(ct *pthread.T) {
				mu.Lock(ct)
				for !ready {
					if cv.WaitTimeout(ct, &mu, vtime.Micro(1_000_000)) {
						timedOut = true
						break
					}
				}
				mu.Unlock(ct)
			})
			tt.SleepMicros(5_000)
			mu.Lock(tt)
			ready = true
			cv.Signal(tt)
			mu.Unlock(tt)
			tt.MustJoin(w)
		})
		if err != nil {
			t.Fatal(err)
		}
		if timedOut {
			t.Error("signal lost the race to a 1s timeout")
		}
		if backend == pthread.BackendSim && st.Time > vtime.Micro(50_000) {
			t.Errorf("makespan %v; the run should end shortly after the 5ms signal", st.Time)
		}
	})
}

// TestCondTimeoutThenSignal: after a waiter times out, a later signal
// must not be lost on its stale entry — it should wake nobody (queue
// empty) or the next live waiter.
func TestCondTimeoutThenSignal(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var mu pthread.Mutex
		var cv pthread.Cond
		woken := 0
		bWaiting := false
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			// Waiter A times out quickly.
			a := tt.Create(func(ct *pthread.T) {
				mu.Lock(ct)
				if !cv.WaitTimeout(ct, &mu, vtime.Micro(1_000)) {
					woken++
				}
				mu.Unlock(ct)
			})
			tt.MustJoin(a)
			// Waiter B waits indefinitely; the signal must reach it even
			// though A's stale entry sits earlier in the queue history.
			b := tt.Create(func(ct *pthread.T) {
				mu.Lock(ct)
				bWaiting = true
				cv.Wait(ct, &mu)
				woken++
				mu.Unlock(ct)
			})
			// B holds mu from raising its flag until its Wait releases
			// it, so a flag seen under mu means B is on the queue.
			for signalled := false; !signalled; {
				tt.SleepMicros(2_000)
				mu.Lock(tt)
				if signalled = bWaiting; signalled {
					cv.Signal(tt)
				}
				mu.Unlock(tt)
			}
			tt.MustJoin(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		if woken != 1 {
			t.Errorf("woken = %d, want 1 (only the live waiter)", woken)
		}
	})
}
