package pthread_test

// The synchronization surface, run on every backend. Native runs real
// goroutine concurrency, so assertions common to both backends are
// schedule-independent invariants (counts, mutual exclusion, phase and
// FIFO order); assertions on virtual time or on one interleaving are
// sim-only. Run these under -race.

import (
	"strings"
	"sync/atomic"
	"testing"

	"spthreads/pthread"
)

// eachBackend runs test once per backend, as a subtest named after it.
func eachBackend(t *testing.T, test func(t *testing.T, backend pthread.Backend)) {
	for _, backend := range pthread.Backends() {
		t.Run(string(backend), func(t *testing.T) { test(t, backend) })
	}
}

// stealing is the work-stealing arm on backend: PolicyWS on the sim,
// and adf-shard natively, where WS is sim-only.
func stealing(backend pthread.Backend) pthread.Policy {
	if backend == pthread.BackendNative {
		return pthread.PolicyADFShard
	}
	return pthread.PolicyWS
}

// TestCondProducerConsumer runs a bounded buffer on mutex + two condition
// variables across schedulers; items arrive in production order.
func TestCondProducerConsumer(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF, stealing(backend)} {
			var mu pthread.Mutex
			var notFull, notEmpty pthread.Cond
			var buf []int
			const capacity = 4
			const items = 100
			received := 0
			sum := 0
			inOrder := true

			cfg := pthread.Config{Procs: 3, Policy: pol, Backend: backend}
			_, err := pthread.Run(cfg, func(tt *pthread.T) {
				prod := tt.Create(func(ct *pthread.T) {
					for i := 1; i <= items; i++ {
						mu.Lock(ct)
						for len(buf) == capacity {
							notFull.Wait(ct, &mu)
						}
						buf = append(buf, i)
						notEmpty.Signal(ct)
						mu.Unlock(ct)
					}
				})
				cons := tt.Create(func(ct *pthread.T) {
					for received < items {
						mu.Lock(ct)
						for len(buf) == 0 {
							notEmpty.Wait(ct, &mu)
						}
						v := buf[0]
						buf = buf[1:]
						notFull.Signal(ct)
						mu.Unlock(ct)
						sum += v
						received++
						inOrder = inOrder && v == received
					}
				})
				tt.JoinAll(prod, cons)
			})
			if err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			if want := items * (items + 1) / 2; sum != want {
				t.Errorf("%s: sum = %d, want %d", pol, sum, want)
			}
			if !inOrder {
				t.Errorf("%s: items consumed out of production order", pol)
			}
		}
	})
}

// TestCondBroadcast wakes all waiters at once.
func TestCondBroadcast(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var mu pthread.Mutex
		var cv pthread.Cond
		released := 0
		go_ := false
		cfg := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			var hs []*pthread.Thread
			for i := 0; i < 6; i++ {
				hs = append(hs, tt.Create(func(ct *pthread.T) {
					mu.Lock(ct)
					for !go_ {
						cv.Wait(ct, &mu)
					}
					released++
					mu.Unlock(ct)
				}))
			}
			// Let the waiters block, then broadcast.
			tt.Charge(100000)
			mu.Lock(tt)
			go_ = true
			cv.Broadcast(tt)
			mu.Unlock(tt)
			tt.JoinAll(hs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if released != 6 {
			t.Errorf("released = %d, want 6", released)
		}
	})
}

// TestSemaphoreRendezvous alternates two threads strictly.
func TestSemaphoreRendezvous(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		s1 := pthread.NewSemaphore(0)
		s2 := pthread.NewSemaphore(0)
		var trace []byte
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			a := tt.Create(func(ct *pthread.T) {
				for i := 0; i < 5; i++ {
					trace = append(trace, 'a')
					s1.Post(ct)
					s2.Wait(ct)
				}
			})
			b := tt.Create(func(ct *pthread.T) {
				for i := 0; i < 5; i++ {
					s1.Wait(ct)
					trace = append(trace, 'b')
					s2.Post(ct)
				}
			})
			tt.JoinAll(a, b)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(trace); got != "ababababab" {
			t.Errorf("trace = %q, want strict alternation", got)
		}
	})
}

// TestSemaphoreCounting: an initial count admits that many waiters
// without blocking, and then caps the concurrent holders.
func TestSemaphoreCounting(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		const workers = 8
		s := pthread.NewSemaphore(3)
		if s.Value() != 3 {
			t.Fatalf("value = %d, want 3", s.Value())
		}
		var mu pthread.Mutex
		drained := int64(-1)
		inside, maxInside := 0, 0
		cfg := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			s.Wait(tt)
			s.Wait(tt)
			s.Wait(tt)
			drained = s.Value()
			s.Post(tt)
			s.Post(tt)
			s.Post(tt)
			fns := make([]func(*pthread.T), workers)
			for i := range fns {
				fns[i] = func(ct *pthread.T) {
					for k := 0; k < 20; k++ {
						s.Wait(ct)
						mu.Lock(ct)
						inside++
						maxInside = max(maxInside, inside)
						mu.Unlock(ct)
						ct.Charge(500)
						mu.Lock(ct)
						inside--
						mu.Unlock(ct)
						s.Post(ct)
					}
				}
			}
			tt.Par(fns...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if drained != 0 {
			t.Errorf("value after three waits = %d, want 0", drained)
		}
		if maxInside > 3 {
			t.Errorf("semaphore admitted %d concurrent holders, cap 3", maxInside)
		}
		if s.Value() != 3 {
			t.Errorf("final value = %d, want 3", s.Value())
		}
	})
}

// TestBarrierPhases: all threads pass each phase together; exactly one
// gets the serial-thread indication per phase.
func TestBarrierPhases(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		const parties = 5
		const phases = 4
		bar := pthread.NewBarrier(parties)
		var mu pthread.Mutex
		phaseCount := make([]int, phases)
		serialCount := make([]int, phases)
		cfg := pthread.Config{Procs: 3, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			var hs []*pthread.Thread
			for i := 0; i < parties; i++ {
				hs = append(hs, tt.Create(func(ct *pthread.T) {
					for ph := 0; ph < phases; ph++ {
						mu.Lock(ct)
						phaseCount[ph]++
						if phaseCount[ph] > parties {
							panic("barrier let too many threads through")
						}
						mu.Unlock(ct)
						if bar.Wait(ct) {
							mu.Lock(ct)
							serialCount[ph]++
							mu.Unlock(ct)
						}
					}
				}))
			}
			tt.JoinAll(hs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		for ph := 0; ph < phases; ph++ {
			if phaseCount[ph] != parties {
				t.Errorf("phase %d: %d arrivals, want %d", ph, phaseCount[ph], parties)
			}
			if serialCount[ph] != 1 {
				t.Errorf("phase %d: %d serial threads, want 1", ph, serialCount[ph])
			}
		}
	})
}

// TestOnce runs the function exactly once across many threads.
func TestOnce(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var once pthread.Once
		count := 0
		cfg := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			fns := make([]func(*pthread.T), 10)
			for i := range fns {
				fns[i] = func(ct *pthread.T) {
					once.Do(ct, func() { count++ })
				}
			}
			tt.Par(fns...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Errorf("once ran %d times", count)
		}
	})
}

// TestOnceBlocksConcurrentCallers: a caller that arrives while the
// first caller's function runs returns only after it has finished
// (pthread_once), even when the function gives its processor up — here
// at a quantum pause on the sim.
func TestOnceBlocksConcurrentCallers(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var once pthread.Once
		initialized := false
		var early atomic.Int32
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			fns := make([]func(*pthread.T), 4)
			for i := range fns {
				fns[i] = func(ct *pthread.T) {
					once.Do(ct, func() {
						ct.ChargeMicros(2000)
						initialized = true
					})
					if !initialized {
						early.Add(1)
					}
				}
			}
			tt.Par(fns...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := early.Load(); n != 0 {
			t.Errorf("%d of 4 callers returned from Do before its function finished", n)
		}
	})
}

// TestTryLock covers the non-blocking acquisition path.
func TestTryLock(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var mu pthread.Mutex
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			if !mu.TryLock(tt) {
				panic("TryLock on free mutex failed")
			}
			h := tt.Create(func(ct *pthread.T) {
				if mu.TryLock(ct) {
					panic("TryLock on held mutex succeeded")
				}
			})
			tt.MustJoin(h)
			mu.Unlock(tt)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestMutexMisuse: relocking a held mutex, unlocking one that is free
// or held by another thread, and waiting on a condition without holding
// its mutex each fail the run with the panic that names the misuse.
func TestMutexMisuse(t *testing.T) {
	const relock, unheld, nomutex = "locking a mutex it already holds",
		"unlocking a mutex it does not hold", "waiting on a condition without holding the mutex"
	cases := []struct {
		name, want string
		body       func(tt *pthread.T, mu *pthread.Mutex, c *pthread.Cond)
	}{
		{"relock", relock, func(tt *pthread.T, mu *pthread.Mutex, _ *pthread.Cond) {
			mu.Lock(tt)
			mu.Lock(tt)
		}},
		{"unlock-free", unheld, func(tt *pthread.T, mu *pthread.Mutex, _ *pthread.Cond) { mu.Unlock(tt) }},
		{"unlock-other", unheld, func(tt *pthread.T, mu *pthread.Mutex, _ *pthread.Cond) {
			mu.Lock(tt)
			tt.MustJoin(tt.Create(func(ct *pthread.T) { mu.Unlock(ct) }))
		}},
		{"wait-free", nomutex, func(tt *pthread.T, mu *pthread.Mutex, c *pthread.Cond) { c.Wait(tt, mu) }},
		{"wait-other", nomutex, func(tt *pthread.T, mu *pthread.Mutex, c *pthread.Cond) {
			mu.Lock(tt)
			tt.MustJoin(tt.Create(func(ct *pthread.T) { c.Wait(ct, mu) }))
		}},
	}
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		for _, tc := range cases {
			var (
				mu pthread.Mutex
				c  pthread.Cond
			)
			cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
			_, err := pthread.Run(cfg, func(tt *pthread.T) { tc.body(tt, &mu, &c) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	})
}

// TestTLS: thread-specific data is isolated per thread.
func TestTLS(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		key := pthread.NewKey()
		var bad atomic.Bool
		cfg := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			fns := make([]func(*pthread.T), 8)
			for i := range fns {
				i := i
				fns[i] = func(ct *pthread.T) {
					ct.SetSpecific(key, i)
					ct.Yield() // give other threads a chance to clobber
					if got := ct.Specific(key); got != i {
						bad.Store(true)
					}
				}
			}
			tt.Par(fns...)
			if tt.Specific(key) != nil {
				bad.Store(true) // root never set it
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if bad.Load() {
			t.Error("TLS values leaked across threads")
		}
	})
}

// TestJoinErrors covers POSIX join misuse.
func TestJoinErrors(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		cfg := pthread.Config{Procs: 1, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			// Joining a detached thread fails.
			d := tt.CreateAttr(pthread.Attr{Detached: true}, func(*pthread.T) {})
			if err := tt.Join(d); err == nil {
				panic("joining a detached thread should fail")
			}
			// Double join fails.
			h := tt.Create(func(*pthread.T) {})
			if err := tt.Join(h); err != nil {
				panic(err)
			}
			if err := tt.Join(h); err == nil {
				panic("double join should fail")
			}
			// Self-join fails.
			if err := tt.Join(tt.Self()); err == nil {
				panic("self join should fail")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitUnwinds: Exit terminates a thread from deep in its call stack
// and the thread still joins cleanly.
func TestExitUnwinds(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		reachedAfter := false
		cfg := pthread.Config{Procs: 1, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			h := tt.Create(func(ct *pthread.T) {
				var deep func(n int)
				deep = func(n int) {
					if n == 0 {
						ct.Exit()
					}
					deep(n - 1)
				}
				deep(20)
				reachedAfter = true
			})
			tt.MustJoin(h)
		})
		if err != nil {
			t.Fatal(err)
		}
		if reachedAfter {
			t.Error("code after Exit ran")
		}
	})
}

// TestDetachedThreadsComplete: the run does not end until detached
// threads finish.
func TestDetachedThreadsComplete(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		var ran atomic.Int32
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		_, err := pthread.Run(cfg, func(tt *pthread.T) {
			for i := 0; i < 5; i++ {
				tt.CreateAttr(pthread.Attr{Detached: true}, func(ct *pthread.T) {
					ct.Charge(1000)
					ran.Add(1)
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := ran.Load(); n != 5 {
			t.Errorf("detached threads ran %d times, want 5", n)
		}
	})
}
