package pthread_test

// Native-backend behavior outside the synchronization objects (whose
// tests, sync_test.go and rwlock_test.go, run on every backend). These
// run real goroutine concurrency, so the assertions are
// schedule-independent invariants, not exact interleavings; run them
// under -race.

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func nativeCfg(procs int) pthread.Config {
	return pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		Backend:      pthread.BackendNative,
		DefaultStack: pthread.SmallStackSize,
	}
}

// TestNativeDefaultProcsEveryPolicy: with Procs unset the native
// backend runs GOMAXPROCS workers, and every native policy must be built
// for that many processors (adf-shard keeps one deque per processor).
// WS and DFD, whose per-processor deques the native store does not
// model, are rejected as sim-only.
func TestNativeDefaultProcsEveryPolicy(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, pol := range pthread.Policies() {
		var res int64
		cfg := pthread.Config{Backend: pthread.BackendNative, Policy: pol}
		_, err := pthread.Run(cfg, func(t *pthread.T) { shardFib(t, 14, &res) })
		if pol == pthread.PolicyWS || pol == pthread.PolicyDFD {
			if err == nil || !strings.Contains(err.Error(), "sim-only") {
				t.Errorf("%s: err = %v, want a sim-only rejection", pol, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res != 377 {
			t.Errorf("%s: fib(14) = %d, want 377", pol, res)
		}
	}
}

// TestNativeYieldOrder: a yielding thread is keyed afresh on becoming
// ready. On one processor a FIFO Yield therefore rotates the yielder
// behind both ready children, and a LIFO Yield, whose key is now the
// newest, keeps the processor.
func TestNativeYieldOrder(t *testing.T) {
	for _, tc := range []struct {
		pol  pthread.Policy
		want string
	}{
		{pthread.PolicyFIFO, "aby"},
		{pthread.PolicyLIFO, "yba"},
	} {
		var mu sync.Mutex
		var order []byte
		note := func(c byte) {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
		}
		cfg := pthread.Config{Procs: 1, Policy: tc.pol, Backend: pthread.BackendNative}
		_, err := pthread.Run(cfg, func(mt *pthread.T) {
			a := mt.Create(func(*pthread.T) { note('a') })
			b := mt.Create(func(*pthread.T) { note('b') })
			mt.Yield()
			note('y')
			mt.JoinAll(a, b)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.pol, err)
		}
		if got := string(order); got != tc.want {
			t.Errorf("%s: run order %q, want %q", tc.pol, got, tc.want)
		}
	}
}

func runNative(t *testing.T, procs int, main func(*pthread.T)) pthread.Stats {
	t.Helper()
	stats, err := pthread.Run(nativeCfg(procs), main)
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	return stats
}

func TestNativeTLSAndJoin(t *testing.T) {
	key := pthread.NewKey()
	runNative(t, 4, func(mt *pthread.T) {
		mt.SetSpecific(key, "root")
		var hs []*pthread.Thread
		for w := 0; w < 6; w++ {
			w := w
			hs = append(hs, mt.Create(func(wt *pthread.T) {
				if wt.Specific(key) != nil {
					t.Error("TLS leaked across threads")
				}
				wt.SetSpecific(key, w)
				wt.Yield()
				if got := wt.Specific(key); got != w {
					t.Errorf("TLS = %v after yield, want %d", got, w)
				}
			}))
		}
		mt.JoinAll(hs...)
		if mt.Specific(key) != "root" {
			t.Error("root TLS clobbered")
		}
		// POSIX join error cases.
		if err := mt.Join(mt.Self()); err == nil {
			t.Error("self-join succeeded")
		}
		if err := mt.Join(hs[0]); err == nil {
			t.Error("double join succeeded")
		}
	})
}

func TestNativeExitAndDetached(t *testing.T) {
	var mu pthread.Mutex
	reached, after := 0, 0
	st := runNative(t, 2, func(mt *pthread.T) {
		done := pthread.NewSemaphore(0)
		for w := 0; w < 4; w++ {
			mt.CreateAttr(pthread.Attr{Detached: true, StackSize: pthread.SmallStackSize}, func(wt *pthread.T) {
				mu.Lock(wt)
				reached++
				mu.Unlock(wt)
				done.Post(wt)
				wt.Exit()
				mu.Lock(wt)
				after++ // unreachable
				mu.Unlock(wt)
			})
		}
		for w := 0; w < 4; w++ {
			done.Wait(mt)
		}
	})
	if reached != 4 || after != 0 {
		t.Errorf("reached = %d after = %d, want 4 and 0", reached, after)
	}
	if st.ThreadsCreated != 5 {
		t.Errorf("ThreadsCreated = %d, want 5", st.ThreadsCreated)
	}
}

func TestNativeSleepAndNow(t *testing.T) {
	runNative(t, 2, func(mt *pthread.T) {
		before := mt.Now()
		mt.Sleep(vtime.Micro(100))
		if waited := mt.Now() - before; vtime.Duration(waited) < vtime.Micro(100) {
			t.Errorf("slept %v of virtual time, want >= 100us", waited)
		}
	})
}

func TestNativeDeadlockDetected(t *testing.T) {
	var mu pthread.Mutex
	_, err := pthread.Run(nativeCfg(2), func(mt *pthread.T) {
		h := mt.Create(func(wt *pthread.T) {
			mu.Lock(wt)
			// Never unlocked: the parent blocks forever.
		})
		mt.MustJoin(h)
		mu.Lock(mt) // blocks forever: the holder already exited
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock report", err)
	}
}

// TestNativeMutexStress: threads on two processors add to a plain
// counter under one mutex, taking it by TryLock on every third add and
// by Lock otherwise, and yielding inside every seventh critical section
// so that lockers block and are handed the lock. Under -race, a lost
// handoff or a missing happens-before edge shows as a race or a short
// total.
func TestNativeMutexStress(t *testing.T) {
	const threads, adds = 6, 2000
	var (
		mu    pthread.Mutex
		count int
	)
	_, err := pthread.Run(nativeCfg(2), func(mt *pthread.T) {
		hs := make([]*pthread.Thread, threads)
		for i := range hs {
			hs[i] = mt.Create(func(ct *pthread.T) {
				for k := 0; k < adds; k++ {
					if k%3 != 0 || !mu.TryLock(ct) {
						mu.Lock(ct)
					}
					if count++; k%7 == 0 {
						ct.Yield()
					}
					mu.Unlock(ct)
				}
			})
		}
		mt.JoinAll(hs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != threads*adds {
		t.Errorf("count = %d, want %d", count, threads*adds)
	}
}

func TestNativeThreadPanicReported(t *testing.T) {
	_, err := pthread.Run(nativeCfg(2), func(mt *pthread.T) {
		h := mt.Create(func(*pthread.T) { panic("boom") })
		mt.MustJoin(h)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want propagated panic", err)
	}
}

func TestNativeStats(t *testing.T) {
	reg := pthread.NewMetrics()
	cfg := nativeCfg(2)
	cfg.Metrics = reg
	st, err := pthread.Run(cfg, func(mt *pthread.T) {
		a := mt.Malloc(4096)
		mt.Charge(10_000)
		var fns []func(*pthread.T)
		for w := 0; w < 4; w++ {
			fns = append(fns, func(wt *pthread.T) {
				b := wt.Malloc(1 << 16)
				wt.Charge(50_000)
				wt.Free(b)
			})
		}
		mt.Par(fns...)
		mt.Free(a)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.ThreadsCreated < 5 {
		t.Errorf("ThreadsCreated = %d, want >= 5", st.ThreadsCreated)
	}
	if st.Work < 210_000 {
		t.Errorf("Work = %v, want >= 210000 cycles", st.Work)
	}
	if st.Span <= 0 || st.Time <= 0 {
		t.Errorf("Span = %v Time = %v, want both positive", st.Span, st.Time)
	}
	if st.HeapHWM < 4096 {
		t.Errorf("HeapHWM = %d, want >= 4096", st.HeapHWM)
	}
	if st.Metrics == nil {
		t.Fatal("Metrics snapshot missing")
	}
	if len(st.Procs) != 2 {
		t.Errorf("got %d proc rows, want 2", len(st.Procs))
	}
}
