package pthread_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"spthreads/internal/leakcheck"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// TestPanicPropagates: a panic in thread code surfaces as a run error
// naming the thread, rather than crashing the host program.
func TestPanicPropagates(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		h := tt.CreateAttr(pthread.Attr{Name: "boomer"}, func(ct *pthread.T) {
			panic("boom")
		})
		tt.MustJoin(h)
	})
	if err == nil {
		t.Fatal("expected an error from the panicking thread")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "boomer") {
		t.Errorf("error does not identify the panic: %v", err)
	}
}

// TestNoGoroutineLeaks drives every terminal path of a simulator run at
// p = 1 and p = 8 and checks after each that no thread goroutine is left
// behind. Any thread can end the run — the last one to exit, or the one
// whose stop found a deadlock, a panic or the step limit — so each path
// leaves threads parked in different places for the shutdown walk.
func TestNoGoroutineLeaks(t *testing.T) {
	const n = 50
	// parkMany forks n threads that block on sem (every one is started:
	// under ADF each child runs as soon as it is forked).
	parkMany := func(tt *pthread.T, sem *pthread.Semaphore, attr pthread.Attr) []*pthread.Thread {
		hs := make([]*pthread.Thread, n)
		for i := range hs {
			hs[i] = tt.CreateAttr(attr, func(ct *pthread.T) { sem.Wait(ct) })
		}
		return hs
	}
	release := func(tt *pthread.T, sem *pthread.Semaphore) {
		for i := 0; i < n; i++ {
			sem.Post(tt)
		}
	}
	var dive func(tt *pthread.T, d int)
	dive = func(tt *pthread.T, d int) {
		if d == 0 {
			tt.Exit()
		}
		dive(tt, d-1)
	}
	paths := []struct {
		name     string
		maxSteps int64
		wantErr  string // "" for a clean run
		main     func(tt *pthread.T)
	}{
		{"clean", 0, "", func(tt *pthread.T) {
			var tree func(tt *pthread.T, d int)
			tree = func(tt *pthread.T, d int) {
				tt.Charge(int64(vtime.Micro(300))) // past the quantum: a pause
				if d > 0 {
					tt.Par(func(ct *pthread.T) { tree(ct, d-1) }, func(ct *pthread.T) { tree(ct, d-1) })
				}
			}
			tree(tt, 6)
		}},
		{"panic", 0, "boom", func(tt *pthread.T) {
			parkMany(tt, pthread.NewSemaphore(0), pthread.Attr{})
			tt.Create(func(ct *pthread.T) { ct.Charge(1 << 30) })
			tt.MustJoin(tt.Create(func(ct *pthread.T) { panic("boom") }))
		}},
		{"deadlock", 0, "deadlock", func(tt *pthread.T) {
			tt.JoinAll(parkMany(tt, pthread.NewSemaphore(0), pthread.Attr{})...)
		}},
		{"max-steps", 500, "steps", func(tt *pthread.T) {
			parkMany(tt, pthread.NewSemaphore(0), pthread.Attr{})
			for i := 0; i < 4; i++ {
				tt.Create(func(ct *pthread.T) {
					for {
						ct.Yield()
					}
				})
			}
			for {
				tt.Yield()
			}
		}},
		{"exit-from-depth", 0, "", func(tt *pthread.T) {
			sem := pthread.NewSemaphore(0)
			parkMany(tt, sem, pthread.Attr{})
			tt.MustJoin(tt.Create(func(ct *pthread.T) {
				release(ct, sem)
				dive(ct, 64)
			}))
			dive(tt, 8)
		}},
		{"unjoined-detached", 0, "", func(tt *pthread.T) {
			sem := pthread.NewSemaphore(0)
			parkMany(tt, sem, pthread.Attr{Detached: true})
			release(tt, sem)
		}},
		{"pending-wait-timeout", 0, "late", func(tt *pthread.T) {
			var mu pthread.Mutex
			var cv pthread.Cond
			for i := 0; i < 4; i++ {
				tt.Create(func(ct *pthread.T) {
					mu.Lock(ct)
					cv.WaitTimeout(ct, &mu, vtime.Micro(1_000_000))
					mu.Unlock(ct)
				})
			}
			tt.Charge(int64(vtime.Micro(1_000)))
			panic("late")
		}},
	}
	for _, p := range paths {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", p.name, procs), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := pthread.Config{Procs: procs, Policy: pthread.PolicyADF, MaxSteps: p.maxSteps}
				_, err := pthread.Run(cfg, p.main)
				switch {
				case p.wantErr == "" && err != nil:
					t.Errorf("run failed: %v", err)
				case p.wantErr != "" && (err == nil || !strings.Contains(err.Error(), p.wantErr)):
					t.Errorf("run error = %v, want one containing %q", err, p.wantErr)
				}
				leakcheck.AssertNoLeakedGoroutines(t, base)
			})
		}
	}
}

// TestStepLimit: runaway computations hit MaxSteps instead of hanging.
func TestStepLimit(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF, MaxSteps: 100}, func(tt *pthread.T) {
		for {
			tt.Yield()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("expected step-limit error, got %v", err)
	}
}

// TestUnknownPolicy surfaces configuration errors.
func TestUnknownPolicy(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Policy: "warp-drive"}, func(*pthread.T) {})
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestZeroValueConfig works with all defaults.
func TestZeroValueConfig(t *testing.T) {
	st, err := pthread.Run(pthread.Config{}, func(tt *pthread.T) { tt.Charge(100) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "adf" || st.NumProcs != 1 {
		t.Errorf("defaults: policy=%s procs=%d, want adf/1", st.Policy, st.NumProcs)
	}
}
