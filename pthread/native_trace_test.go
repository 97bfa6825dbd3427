package pthread_test

// Native-backend tracing end to end: a run with a Tracer attached must
// produce a wall-clock event stream that carries the same structural
// events as a sim trace (create/dispatch/join/exit and a terminal
// run-end), merges the per-worker rings time-sorted, and feeds the
// offline analyzer unchanged. Error paths — deadlock detection and
// thread panics — must still finalize the trace with the matching
// terminal status.

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

// runEnd returns the trace's terminal run-end event, failing the test
// when it is missing or duplicated.
func runEnd(t *testing.T, rec *pthread.TraceRecorder) trace.Event {
	t.Helper()
	var ends []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.KindRunEnd {
			ends = append(ends, e)
		}
	}
	if len(ends) != 1 {
		t.Fatalf("trace has %d run-end events, want exactly 1", len(ends))
	}
	return ends[0]
}

func TestNativeTraceCleanRun(t *testing.T) {
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := nativeCfg(2)
	cfg.Tracer = rec
	_, err := pthread.Run(cfg, func(mt *pthread.T) {
		a := mt.Malloc(4096)
		var fns []func(*pthread.T)
		for w := 0; w < 4; w++ {
			fns = append(fns, func(wt *pthread.T) {
				b := wt.Malloc(1 << 12)
				wt.Charge(10_000)
				wt.Free(b)
			})
		}
		mt.Par(fns...)
		mt.Free(a)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rec.Unit(); got != trace.UnitWallNS {
		t.Errorf("trace unit = %v, want wall-ns", got)
	}
	if rec.Dropped() != 0 {
		t.Errorf("dropped %d events with an oversized recorder", rec.Dropped())
	}

	events := rec.Events()
	kinds := make(map[trace.Kind]int)
	for i, e := range events {
		kinds[e.Kind]++
		if i > 0 && e.At < events[i-1].At {
			t.Fatalf("events not time-sorted: [%d].At=%d after [%d].At=%d",
				i, e.At, i-1, events[i-1].At)
		}
	}
	// Root + 4 workers forked, dispatched, exited; the root joins each.
	if kinds[trace.KindCreate] != 5 {
		t.Errorf("create events = %d, want 5", kinds[trace.KindCreate])
	}
	for _, k := range []trace.Kind{
		trace.KindDispatch, trace.KindExit, trace.KindJoin,
		trace.KindAlloc, trace.KindFree, trace.KindStackAlloc,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	end := runEnd(t, rec)
	if end.Arg != trace.RunEndClean {
		t.Errorf("run-end status = %d, want clean (%d)", end.Arg, trace.RunEndClean)
	}
	if end.Proc != -1 {
		t.Errorf("run-end proc = %d, want -1 (machine-level)", end.Proc)
	}
	if last := events[len(events)-1]; last.Kind != trace.KindRunEnd {
		t.Errorf("last event = %v, want run-end to close the stream", last.Kind)
	}
}

func TestNativeTraceAnalyzable(t *testing.T) {
	// The acceptance path: native trace -> full pttrace -in -analyze analysis
	// with wall-clock quantities, no sim run involved.
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := nativeCfg(2)
	cfg.Tracer = rec
	_, err := pthread.Run(cfg, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < 4; w++ {
			fns = append(fns, func(wt *pthread.T) {
				b := wt.Malloc(1 << 14)
				wt.Charge(50_000)
				wt.Free(b)
			})
		}
		mt.Par(fns...)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, aerr := analyze.Analyze(rec, analyze.Options{Policy: "adf"})
	if aerr != nil {
		t.Fatalf("analyze native trace: %v", aerr)
	}
	if rep.Threads != 5 {
		t.Errorf("analyzed threads = %d, want 5", rep.Threads)
	}
	if rep.Work <= 0 || rep.Depth <= 0 || rep.Makespan <= 0 {
		t.Errorf("W=%v D=%v makespan=%v, want all positive wall durations",
			rep.Work, rep.Depth, rep.Makespan)
	}
	if rep.Work < rep.Depth {
		t.Errorf("work %v < depth %v: DAG reconstruction broken", rep.Work, rep.Depth)
	}
	if rep.SerialSpace <= 0 || rep.Peak <= 0 {
		t.Errorf("S1=%d peak=%d, want positive space from replayed allocs",
			rep.SerialSpace, rep.Peak)
	}
}

func TestNativeTraceDeadlockRunEnd(t *testing.T) {
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := nativeCfg(2)
	cfg.Tracer = rec
	var mu pthread.Mutex
	_, err := pthread.Run(cfg, func(mt *pthread.T) {
		h := mt.Create(func(wt *pthread.T) {
			mu.Lock(wt)
			// Never unlocked: the parent blocks forever.
		})
		mt.MustJoin(h)
		mu.Lock(mt)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
	if end := runEnd(t, rec); end.Arg != trace.RunEndDeadlock {
		t.Errorf("run-end status = %d, want deadlock (%d)", end.Arg, trace.RunEndDeadlock)
	}
	if rec.Unit() != trace.UnitWallNS {
		t.Errorf("deadlocked trace unit = %v, want wall-ns", rec.Unit())
	}
}

func TestNativeTracePanicRunEnd(t *testing.T) {
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := nativeCfg(2)
	cfg.Tracer = rec
	_, err := pthread.Run(cfg, func(mt *pthread.T) {
		h := mt.Create(func(*pthread.T) { panic("boom") })
		mt.MustJoin(h)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want propagated panic", err)
	}
	if end := runEnd(t, rec); end.Arg != trace.RunEndPanic {
		t.Errorf("run-end status = %d, want panic (%d)", end.Arg, trace.RunEndPanic)
	}
}

func TestNativeTraceSmallRecorderDrops(t *testing.T) {
	// A deliberately tiny recorder must truncate (counting drops), not
	// grow, block, or corrupt the merge.
	rec := pthread.NewTraceRecorder(8)
	cfg := nativeCfg(2)
	cfg.Tracer = rec
	_, err := pthread.Run(cfg, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < 8; w++ {
			fns = append(fns, func(wt *pthread.T) { wt.Charge(1000) })
		}
		mt.Par(fns...)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(rec.Events()); n > 8 {
		t.Errorf("recorder holds %d events, cap 8", n)
	}
	if rec.Dropped() == 0 {
		t.Error("no drops counted despite a trace larger than the recorder")
	}
}

// TestNativeTraceStealCount: sched.steal.count counts every steal the
// trace records, a claim from another worker's runnext slot included.
// The program wakes a thread and then computes until it has run; when
// the thread had blocked before the wake, it waits in the waker's slot,
// and only an idle worker's slot steal can run it. A run in which the
// post came first is repeated.
func TestNativeTraceStealCount(t *testing.T) {
	for run := 0; run < 20; run++ {
		rec, reg := pthread.NewTraceRecorder(1<<16), pthread.NewMetrics()
		cfg := nativeCfg(2)
		cfg.Tracer, cfg.Metrics = rec, reg
		var woken int64
		st, err := pthread.Run(cfg, func(mt *pthread.T) {
			sem := pthread.NewSemaphore(0)
			var ran atomic.Bool
			h := mt.Create(func(c *pthread.T) {
				sem.Wait(c)
				ran.Store(true)
			})
			woken = h.ID()
			sem.Post(mt)
			for t0 := time.Now(); !ran.Load(); {
				if time.Since(t0) > 2*time.Second {
					panic("the woken thread did not run while its waker computed")
				}
			}
			mt.MustJoin(h)
			var sum int64
			shardFib(mt, 12, &sum) // forks and joins, for shard steals
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		steals, slot := int64(0), false
		for _, e := range rec.Events() {
			if e.Kind == trace.KindSteal {
				steals++
				slot = slot || e.Thread == woken
			}
		}
		if got := st.Metrics.Counters["sched.steal.count"]; got != steals {
			t.Fatalf("sched.steal.count = %d, trace has %d steal events", got, steals)
		}
		if slot {
			t.Logf("run %d: %d steals, the woken thread's among them", run, steals)
			return
		}
	}
	t.Fatal("no run stole the woken thread from its waker's slot")
}
