package pthread_test

// At one processor the simulator is an exact oracle of the native
// backend's schedule: with no second worker and no timer, the native
// ready store makes the same picks in the same order, so both backends
// record the same (kind, thread, arg) event sequence. Time-valued args
// (an exit's span, a lock acquisition's wait) and native's run-end
// record are stripped first.

import (
	"fmt"
	"testing"

	"spthreads/internal/trace"
	"spthreads/pthread"
)

// oracleEvent is the schedule-relevant part of a trace event.
type oracleEvent struct {
	kind   trace.Kind
	thread int64
	arg    int64
}

func (e oracleEvent) String() string { return fmt.Sprintf("%v t%d %d", e.kind, e.thread, e.arg) }

// oraclePeaks is the part of a run's Stats both backends define alike
// at one processor.
type oraclePeaks struct {
	PeakLive           int
	StackHWM, TotalHWM int64
}

// oracleTrace runs prog at Procs 1 on backend under policy and returns
// its stripped event sequence and its peaks.
func oracleTrace(t *testing.T, backend pthread.Backend, policy pthread.Policy, prog func(*pthread.T)) ([]oracleEvent, oraclePeaks) {
	t.Helper()
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := pthread.Config{Procs: 1, Policy: policy, Backend: backend, Tracer: rec}
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%s: %d events dropped", backend, rec.Dropped())
	}
	var out []oracleEvent
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindRunEnd:
			if backend == pthread.BackendNative {
				continue
			}
		case trace.KindExit, trace.KindLockAcquire:
			e.Arg = 0
		}
		out = append(out, oracleEvent{e.Kind, e.Thread, e.Arg})
	}
	return out, oraclePeaks{st.PeakLive, st.StackHWM, st.TotalHWM}
}

// The sync programs: a bounded-buffer pipeline (mutex and two
// conditions per buffer), a barrier, and a semaphore ping-pong.

func oraclePipeline(t *pthread.T) {
	const stages, capacity, items = 4, 2, 40
	type buffer struct {
		mu                pthread.Mutex
		notEmpty, notFull pthread.Cond
		ring              [capacity]int
		head, n           int
	}
	bufs := make([]buffer, stages-1)
	put := func(t *pthread.T, b *buffer, v int) {
		b.mu.Lock(t)
		for b.n == capacity {
			b.notFull.Wait(t, &b.mu)
		}
		b.ring[(b.head+b.n)%capacity] = v
		b.n++
		b.notEmpty.Signal(t)
		b.mu.Unlock(t)
	}
	get := func(t *pthread.T, b *buffer) int {
		b.mu.Lock(t)
		for b.n == 0 {
			b.notEmpty.Wait(t, &b.mu)
		}
		v := b.ring[b.head]
		b.head = (b.head + 1) % capacity
		b.n--
		b.notFull.Signal(t)
		b.mu.Unlock(t)
		return v
	}
	sum := 0
	fns := make([]func(*pthread.T), stages)
	for k := range fns {
		fns[k] = func(t *pthread.T) {
			for i := 0; i < items; i++ {
				switch k {
				case 0:
					put(t, &bufs[0], i)
				case stages - 1:
					sum += get(t, &bufs[k-1])
				default:
					put(t, &bufs[k], get(t, &bufs[k-1])+1)
				}
			}
		}
	}
	t.Par(fns...)
	if want := items*(items-1)/2 + items*(stages-2); sum != want {
		panic(fmt.Sprintf("pipeline sum %d, want %d", sum, want))
	}
}

func oracleBarrier(t *pthread.T) {
	const parties, rounds = 4, 8
	bar := pthread.NewBarrier(parties)
	serials := 0
	fns := make([]func(*pthread.T), parties)
	for k := range fns {
		fns[k] = func(t *pthread.T) {
			for r := 0; r < rounds; r++ {
				if bar.Wait(t) {
					serials++
				}
			}
		}
	}
	t.Par(fns...)
	if serials != rounds {
		panic(fmt.Sprintf("%d releasing threads in %d rounds", serials, rounds))
	}
}

func oraclePingPong(t *pthread.T) {
	const trips = 30
	ping, pong := pthread.NewSemaphore(0), pthread.NewSemaphore(0)
	t.Par(func(t *pthread.T) {
		for i := 0; i < trips; i++ {
			ping.Post(t)
			pong.Wait(t)
		}
	}, func(t *pthread.T) {
		for i := 0; i < trips; i++ {
			ping.Wait(t)
			pong.Post(t)
		}
	})
}

// TestP1OracleSyncPrograms requires, for each sync program and policy
// the native backend runs, the same stripped event sequence and the same
// peak live threads, stack and total footprint from both backends at one
// processor.
func TestP1OracleSyncPrograms(t *testing.T) {
	for _, prog := range []struct {
		name string
		run  func(*pthread.T)
	}{{"pipeline", oraclePipeline}, {"barrier", oracleBarrier}, {"pingpong", oraclePingPong}} {
		for _, policy := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyADFShard, pthread.PolicyFIFO, pthread.PolicyLIFO} {
			t.Run(prog.name+"/"+string(policy), func(t *testing.T) {
				sim, simPeaks := oracleTrace(t, pthread.BackendSim, policy, prog.run)
				nat, natPeaks := oracleTrace(t, pthread.BackendNative, policy, prog.run)
				if simPeaks != natPeaks {
					t.Errorf("peaks differ: sim %+v, native %+v", simPeaks, natPeaks)
				}
				n := min(len(sim), len(nat))
				for i := 0; i < n; i++ {
					if sim[i] != nat[i] {
						lo, hi := max(0, i-3), min(n, i+4)
						t.Fatalf("event %d of %d/%d differs:\n sim %v\n native %v", i, len(sim), len(nat), sim[lo:hi], nat[lo:hi])
					}
				}
				if len(sim) != len(nat) {
					t.Fatalf("sim recorded %d events, native %d: the first %d agree", len(sim), len(nat), n)
				}
				t.Logf("%d events agree", n)
			})
		}
	}
}
