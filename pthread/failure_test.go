package pthread_test

import (
	"runtime"
	"strings"
	"testing"

	"spthreads/internal/leakcheck"
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

// TestNoGoroutineLeaks: aborted runs (deadlock, panic) must unwind all
// parked thread goroutines.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		// A run that deadlocks with several parked threads.
		var a, b pthread.Mutex
		bar := pthread.NewBarrier(2)
		_, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
			h1 := tt.Create(func(ct *pthread.T) {
				a.Lock(ct)
				bar.Wait(ct)
				b.Lock(ct)
			})
			h2 := tt.Create(func(ct *pthread.T) {
				b.Lock(ct)
				bar.Wait(ct)
				a.Lock(ct)
			})
			tt.JoinAll(h1, h2)
		})
		if err == nil {
			t.Fatal("expected deadlock")
		}
		// And a run that panics with live siblings.
		_, err = pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
			tt.Create(func(ct *pthread.T) { ct.Charge(1 << 30) })
			h := tt.Create(func(ct *pthread.T) { panic("x") })
			tt.MustJoin(h)
		})
		if err == nil {
			t.Fatal("expected panic error")
		}
	}

	leakcheck.AssertNoLeakedGoroutines(t, base)
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
