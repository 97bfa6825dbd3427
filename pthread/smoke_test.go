package pthread_test

import (
	"testing"

	"spthreads/pthread"
)

// TestRootOnly runs a trivial root-only program under every policy.
func TestRootOnly(t *testing.T) {
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF, pthread.PolicyWS} {
		st, err := pthread.Run(pthread.Config{Procs: 2, Policy: pol}, func(tt *pthread.T) {
			tt.Charge(1000)
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if st.ThreadsCreated != 1 {
			t.Errorf("%s: created = %d, want 1", pol, st.ThreadsCreated)
		}
		if st.Time <= 0 {
			t.Errorf("%s: time = %d, want > 0", pol, st.Time)
		}
	}
}

// TestForkJoinTree runs a fork/join binary tree and checks the computed
// sum to prove every thread ran exactly once.
func TestForkJoinTree(t *testing.T) {
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF, pthread.PolicyWS} {
		for _, procs := range []int{1, 3, 8} {
			var sum func(tt *pthread.T, lo, hi int) int
			sum = func(tt *pthread.T, lo, hi int) int {
				tt.Charge(100)
				if hi-lo == 1 {
					return lo
				}
				mid := (lo + hi) / 2
				var left, right int
				h := tt.Create(func(ct *pthread.T) { left = sum(ct, lo, mid) })
				right = sum(tt, mid, hi)
				tt.MustJoin(h)
				return left + right
			}
			var got int
			st, err := pthread.Run(pthread.Config{Procs: procs, Policy: pol}, func(tt *pthread.T) {
				got = sum(tt, 0, 64)
			})
			if err != nil {
				t.Fatalf("%s/p%d: %v", pol, procs, err)
			}
			if want := 64 * 63 / 2; got != want {
				t.Errorf("%s/p%d: sum = %d, want %d", pol, procs, got, want)
			}
			if st.ThreadsCreated != 64 {
				t.Errorf("%s/p%d: created = %d, want 64", pol, procs, st.ThreadsCreated)
			}
		}
	}
}

// TestFigure1 reproduces the paper's Figure 1 example: a binary fork
// tree of 7 threads executed serially. A FIFO queue makes all 7 threads
// simultaneously active; the space-efficient scheduler holds the maximum
// at 3 (the depth); the LIFO queue (with Solaris fork semantics, where
// the parent keeps running after a fork) reaches 5. On one processor the
// native backend runs the same serial schedule from its one ready store.
func TestFigure1(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		run := func(pol pthread.Policy) pthread.Stats {
			st, err := pthread.Run(pthread.Config{Procs: 1, Policy: pol, Backend: backend}, func(tt *pthread.T) {
				node := func(leafwork func(*pthread.T)) func(*pthread.T) {
					return func(tt *pthread.T) {
						tt.Par(leafwork, leafwork)
					}
				}
				leaf := func(tt *pthread.T) { tt.Charge(10) }
				tt.Par(node(leaf), node(leaf))
			})
			if err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			return st
		}

		if st := run(pthread.PolicyFIFO); st.PeakLive != 7 {
			t.Errorf("fifo: peak live = %d, want 7 (breadth-first)", st.PeakLive)
		}
		if st := run(pthread.PolicyADF); st.PeakLive != 3 {
			t.Errorf("adf: peak live = %d, want 3 (depth-first)", st.PeakLive)
		}
		if st := run(pthread.PolicyLIFO); st.PeakLive != 5 {
			t.Errorf("lifo: peak live = %d, want 5", st.PeakLive)
		}
	})
}

// TestDeterminism checks that identical configurations produce identical
// virtual times and footprints.
func TestDeterminism(t *testing.T) {
	prog := func(tt *pthread.T) {
		var rec func(tt *pthread.T, d int)
		rec = func(tt *pthread.T, d int) {
			tt.Charge(500)
			if d == 0 {
				a := tt.Malloc(4096)
				tt.TouchAll(a)
				tt.Charge(2000)
				tt.Free(a)
				return
			}
			tt.Par(
				func(ct *pthread.T) { rec(ct, d-1) },
				func(ct *pthread.T) { rec(ct, d-1) },
			)
		}
		rec(tt, 5)
	}
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF, pthread.PolicyWS} {
		cfg := pthread.Config{Procs: 4, Policy: pol}
		a, err := pthread.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		b, err := pthread.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if a.Time != b.Time || a.TotalHWM != b.TotalHWM || a.PeakLive != b.PeakLive {
			t.Errorf("%s: nondeterministic: (%v,%d,%d) vs (%v,%d,%d)",
				pol, a.Time, a.TotalHWM, a.PeakLive, b.Time, b.TotalHWM, b.PeakLive)
		}
	}
}

// TestMutexCounter checks mutual exclusion and blocking lock handoff.
func TestMutexCounter(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend pthread.Backend) {
		for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyADF, stealing(backend)} {
			var mu pthread.Mutex
			counter := 0
			cfg := pthread.Config{Procs: 4, Policy: pol, Backend: backend}
			_, err := pthread.Run(cfg, func(tt *pthread.T) {
				fns := make([]func(*pthread.T), 16)
				for i := range fns {
					fns[i] = func(ct *pthread.T) {
						for j := 0; j < 10; j++ {
							mu.Lock(ct)
							ct.Charge(50)
							counter++
							mu.Unlock(ct)
						}
					}
				}
				tt.Par(fns...)
			})
			if err != nil {
				t.Fatalf("%s: %v", pol, err)
			}
			if counter != 160 {
				t.Errorf("%s: counter = %d, want 160", pol, counter)
			}
		}
	})
}

// TestDeadlockDetection ensures an all-blocked computation is reported
// as a deadlock rather than hanging.
func TestDeadlockDetection(t *testing.T) {
	var a, b pthread.Mutex
	bar := pthread.NewBarrier(2) // forces both threads to hold their first lock
	_, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		h1 := tt.Create(func(ct *pthread.T) {
			a.Lock(ct)
			bar.Wait(ct)
			b.Lock(ct)
			b.Unlock(ct)
			a.Unlock(ct)
		})
		h2 := tt.Create(func(ct *pthread.T) {
			b.Lock(ct)
			bar.Wait(ct)
			a.Lock(ct)
			a.Unlock(ct)
			b.Unlock(ct)
		})
		tt.JoinAll(h1, h2)
	})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

// TestQuotaPreemption checks that ADF preempts on quota exhaustion and
// forks dummy threads for oversized allocations.
func TestQuotaPreemption(t *testing.T) {
	st, err := pthread.Run(pthread.Config{
		Procs:    1,
		Policy:   pthread.PolicyADF,
		MemQuota: 1 << 10,
	}, func(tt *pthread.T) {
		a := tt.Malloc(10 << 10) // 10x the quota: must fork 10 dummies
		tt.Free(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.DummyThreads != 10 {
		t.Errorf("dummies = %d, want 10", st.DummyThreads)
	}
	if st.ThreadsCreated != 11 { // root + 10 dummies
		t.Errorf("created = %d, want 11", st.ThreadsCreated)
	}
}
