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
	ThreadsCreated, DummyThreads int64
	PeakLive                     int
	StackHWM, TotalHWM           int64
}

// oracleTrace runs prog under cfg at Procs 1 and returns its stripped
// event sequence and its peaks.
func oracleTrace(t *testing.T, cfg pthread.Config, prog func(*pthread.T)) ([]oracleEvent, oraclePeaks) {
	t.Helper()
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg.Procs, cfg.Tracer = 1, rec
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Backend, err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%s: %d events dropped", cfg.Backend, rec.Dropped())
	}
	var out []oracleEvent
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindRunEnd:
			if cfg.Backend == pthread.BackendNative {
				continue
			}
		case trace.KindExit, trace.KindLockAcquire:
			e.Arg = 0
		}
		out = append(out, oracleEvent{e.Kind, e.Thread, e.Arg})
	}
	return out, oraclePeaks{st.ThreadsCreated, st.DummyThreads, st.PeakLive, st.StackHWM, st.TotalHWM}
}

// requireOracle runs prog under cfg on both backends at one processor
// and requires the same stripped event sequence and the same peaks,
// TotalHWM only when withTotal. It returns the sim's peaks.
func requireOracle(t *testing.T, cfg pthread.Config, prog func(*pthread.T), withTotal bool) oraclePeaks {
	t.Helper()
	cfg.Backend = pthread.BackendSim
	sim, simPeaks := oracleTrace(t, cfg, prog)
	cfg.Backend = pthread.BackendNative
	nat, natPeaks := oracleTrace(t, cfg, prog)
	if !withTotal {
		simPeaks.TotalHWM, natPeaks.TotalHWM = 0, 0
	}
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
	return simPeaks
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
// thread counts and peak live threads, stack and total footprint from
// both backends at one processor.
func TestP1OracleSyncPrograms(t *testing.T) {
	for _, prog := range []struct {
		name string
		run  func(*pthread.T)
	}{{"pipeline", oraclePipeline}, {"barrier", oracleBarrier}, {"pingpong", oraclePingPong}} {
		for _, policy := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyADFShard, pthread.PolicyFIFO, pthread.PolicyLIFO} {
			t.Run(prog.name+"/"+string(policy), func(t *testing.T) {
				requireOracle(t, pthread.Config{Policy: policy}, prog.run, true)
			})
		}
	}
}

// oracleMallocTree is a seeded irregular fork/join tree: each thread
// holds a block of up to 40 KB across its 0 to 3 children, and frees a
// second one before forking them. Every draw comes from the thread's
// own key, so the tree is the same whatever the schedule.
func oracleMallocTree(t *pthread.T) { oracleMallocNode(t, 1, 0) }

func oracleMallocNode(t *pthread.T, key uint64, depth int) {
	r := splitmix(key)
	held := t.Malloc(int64(r%(40<<10)) + 1)
	t.Free(t.Malloc(int64(r>>16%(40<<10)) + 1))
	kids := 0
	if depth < 6 {
		kids = int(r >> 40 % 4)
	}
	fns := make([]func(*pthread.T), kids)
	for i := range fns {
		child := key*4 + uint64(i)
		fns[i] = func(t *pthread.T) { oracleMallocNode(t, child, depth+1) }
	}
	t.Par(fns...)
	t.Free(held)
}

// splitmix is the SplitMix64 finalizer: a well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestP1OracleQuota extends the oracle to the memory quota: on the
// Malloc tree, both backends must agree event for event, dummy threads
// and quota preemptions included, and in thread counts, peak live
// threads and StackHWM. HeapHWM and TotalHWM differ by definition (the
// sim rounds each block to 16 bytes, and its stack cache keeps exited
// default-size stacks live), so they are not compared. fifo and lifo
// apply no quota, so they run the tree once, without the knobs.
func TestP1OracleQuota(t *testing.T) {
	type arm struct {
		name string
		cfg  pthread.Config
	}
	quotaArms := []arm{
		{"k4k", pthread.Config{MemQuota: 4 << 10}},
		{"k64k", pthread.Config{MemQuota: 64 << 10}},
		{"k4k-nodummies", pthread.Config{MemQuota: 4 << 10, DisableDummies: true}},
	}
	for _, policy := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyADFShard, pthread.PolicyFIFO, pthread.PolicyLIFO} {
		arms := quotaArms
		if policy == pthread.PolicyFIFO || policy == pthread.PolicyLIFO {
			arms = []arm{{"none", pthread.Config{}}}
		}
		for _, a := range arms {
			cfg := a.cfg
			cfg.Policy = policy
			t.Run(string(policy)+"/"+a.name, func(t *testing.T) {
				p := requireOracle(t, cfg, oracleMallocTree, false)
				t.Logf("%d threads, %d dummies", p.ThreadsCreated, p.DummyThreads)
				// Only K = 4 KB is below the tree's largest blocks.
				if (a.name == "k4k") != (p.DummyThreads > 0) {
					t.Errorf("%d dummy threads under %s", p.DummyThreads, a.name)
				}
			})
		}
	}
}
