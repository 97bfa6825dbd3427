package native

// White-box tests for the processor handoff: a thread yields its
// successor to its worker, which resumes it at once, and the worker's
// own pick is reached only when there is no successor. The handoff
// cycles below would each block forever if a resume had to rendezvous
// with its target's park, and the wake-before-park shapes make a
// resumer wait for a thread that has not yielded yet.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/leakcheck"
	"spthreads/internal/metrics"
	"spthreads/internal/sched"
)

// execute runs main on b and checks that the run left no goroutine
// behind, whichever way it ended.
func execute(t *testing.T, b *Backend, main func(exec.Thread)) (core.Stats, error) {
	t.Helper()
	base := runtime.NumGoroutine()
	st, err := b.Execute(main)
	leakcheck.AssertNoLeakedGoroutines(t, base)
	return st, err
}

// newPolicyBackend builds a native backend on any policy and store.
func newPolicyBackend(t *testing.T, policy sched.Kind, cfg Config) *Backend {
	t.Helper()
	pol, err := sched.New(policy, sched.Options{Procs: cfg.Procs})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	cfg.Policy = pol
	cfg.DefaultStack = core.SmallStackSize
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

// forkFn forks a plain function body.
func forkFn(b *Backend, t exec.Thread, attr core.Attr, fn func(exec.Thread)) exec.Thread {
	return b.Fork(t, attr, exec.Func(fn))
}

// forEachPool runs f once per pool state. The arms keep the names of
// the two native lifecycles these tests once compared. "reference"
// starts from a cold pool: every first launch on a processor starts a
// fresh carrier coroutine and every thread gets a freshly allocated
// record, as one goroutine per thread did. "tuned" primes every
// processor's carrier free list and record arena first
// (newPoolBackend), so launches reuse idle carriers and recycled
// records from the first fork.
func forEachPool(t *testing.T, f func(t *testing.T, warm bool)) {
	for _, s := range []struct {
		name string
		warm bool
	}{{"reference", false}, {"tuned", true}} {
		t.Run(s.name, func(t *testing.T) { f(t, s.warm) })
	}
}

// warmSlots is how many idle carriers and blank records a warm pool
// starts with on each processor.
const warmSlots = 8

// newPoolBackend is newPolicyBackend with the pool primed when warm.
func newPoolBackend(t *testing.T, policy sched.Kind, cfg Config, warm bool) *Backend {
	t.Helper()
	b := newPolicyBackend(t, policy, cfg)
	if warm {
		// Every primer parks in its carrier until all of a processor's are
		// launched, so each launch starts a fresh coroutine; resumed, they
		// finish and their carriers go back on list pid.
		for pid := range b.recs {
			ps := make([]*primer, warmSlots)
			for i := range ps {
				ps[i] = new(primer)
				b.carriers.Launch(pid, ps[i], pid)
				b.recs[pid].Push(&thread{b: b})
			}
			for _, p := range ps {
				b.carriers.Resume(pid, p, p.c, pid)
			}
		}
	}
	return b
}

// primer is a rider that parks once and then finishes.
type primer struct{ c *core.Carrier }

func (p *primer) Ride(c *core.Carrier, _ int) {
	p.c = c
	c.Switch(nil)
}

func (p *primer) Finish(any) core.Rider { return nil }

func mustJoin(b *Backend, t exec.Thread, hs ...exec.Thread) {
	for _, h := range hs {
		if err := b.Join(t, h); err != nil {
			panic(err)
		}
	}
}

// spinUntil waits at host level, keeping the caller's processor.
func spinUntil(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// TestHandoffPickEachOther: T and M hold two processors and are both
// readied by a third thread while still between blockPrep and their
// park. M gives up first and picks T (FIFO order), so M's worker waits
// for T to yield; T then picks M, already parked: each worker resumes
// the other's thread, and the two swap processors. Nothing is idle
// meanwhile — all three processors are out — so the picks are exactly
// these.
func TestHandoffPickEachOther(t *testing.T) {
	forEachPool(t, func(t *testing.T, warm bool) {
		b := newPoolBackend(t, sched.FIFO, Config{Procs: 3}, warm)
		reg := make(chan *thread, 2)
		goT, goM := make(chan struct{}), make(chan struct{})
		var resumed atomic.Int32
		var before, after [2]int
		blocker := func(i int, release chan struct{}) func(exec.Thread) {
			return func(et exec.Thread) {
				tt := et.(*thread)
				before[i] = tt.pid
				b.blockPrep(tt)
				reg <- tt // "registered": the waker can see us now
				<-release
				tt.blockPark()
				after[i] = tt.pid
				resumed.Add(1)
			}
		}
		_, err := execute(t, b, func(root exec.Thread) {
			ht := forkFn(b, root, core.Attr{}, blocker(0, goT))
			hm := forkFn(b, root, core.Attr{}, blocker(1, goM))
			hc := forkFn(b, root, core.Attr{}, func(c exec.Thread) {
				<-reg
				<-reg
				pid := c.(*thread).pid
				b.readyThread(ht.(*thread), pid)
				b.readyThread(hm.(*thread), pid)
				close(goM)
				spinUntil(func() bool { // M has picked T
					b.mu.Lock()
					defer b.mu.Unlock()
					return ht.(*thread).state == core.StateRunning
				})
				close(goT)
				// Stay off the ready structure until both picks are done.
				spinUntil(func() bool { return resumed.Load() == 2 })
			})
			mustJoin(b, root, ht, hm, hc)
		})
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if before[0] == before[1] || after[0] != before[1] || after[1] != before[0] {
			t.Errorf("T held %d then %d, M held %d then %d: want the two processors swapped",
				before[0], after[0], before[1], after[1])
		}
	})
}

// TestHandoffPickSelf: a thread readied between blockPrep and its park
// is the only ready thread when it gives its processor up, so it picks
// itself; and a thread that yields with nothing else ready does the
// same. Both keep the processor without a switch, and neither involves
// a worker's own pick: the only worker dispatches are the ones that
// started each processor's first thread.
func TestHandoffPickSelf(t *testing.T) {
	forEachPool(t, func(t *testing.T, warm bool) {
		b := newPoolBackend(t, sched.FIFO, Config{Procs: 3}, warm)
		reg := make(chan *thread, 1)
		release, finish := make(chan struct{}), make(chan struct{})
		var pids [2]int
		_, err := execute(t, b, func(root exec.Thread) {
			ht := forkFn(b, root, core.Attr{}, func(et exec.Thread) {
				tt := et.(*thread)
				pids[0] = tt.pid
				b.blockPrep(tt)
				reg <- tt
				<-release
				tt.blockPark()
				pids[1] = tt.pid
				close(finish)
			})
			// hold and the waker keep the other two processors out, so no
			// idle worker can take T before T picks itself.
			hold := forkFn(b, root, core.Attr{}, func(exec.Thread) { <-finish })
			hw := forkFn(b, root, core.Attr{}, func(w exec.Thread) {
				b.readyThread(<-reg, w.(*thread).pid)
				close(release)
				<-finish
			})
			mustJoin(b, root, ht, hold, hw)
			for i := 0; i < 1000; i++ {
				b.Yield(root) // alone by now: every yield picks root itself
			}
		})
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if pids[0] != pids[1] {
			t.Errorf("self-picked thread moved from processor %d to %d", pids[0], pids[1])
		}
		var wakeups int64
		for _, w := range b.workers {
			wakeups += w.wakeups
		}
		// Workers can have started each of the 4 threads and resumed the
		// root after each of its 3 joins, nothing more.
		if wakeups > 4+3 {
			t.Errorf("%d worker dispatches for 4 threads and 1000 yields: yields went through a worker", wakeups)
		}
	})
}

// TestWakeBeforeParkWaits: a waker readies T between T's blockPrep and
// its park while other processors are idle, so an idle worker marks T
// running and resumes it before T has yielded. That worker must wait for
// the yield, blocking rather than spinning: at GOMAXPROCS 1 a spinning
// resumer would share the one host processor with the thread it waits
// for. T comes back on the resumer's processor.
func TestWakeBeforeParkWaits(t *testing.T) {
	for _, gmp := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			b := newPolicyBackend(t, sched.FIFO, Config{Procs: 4})
			reg := make(chan *thread, 1)
			release, resumed := make(chan struct{}), make(chan struct{})
			var before, after int
			_, err := execute(t, b, func(root exec.Thread) {
				ht := forkFn(b, root, core.Attr{}, func(et exec.Thread) {
					tt := et.(*thread)
					before = tt.pid
					b.blockPrep(tt)
					reg <- tt
					<-release
					tt.blockPark()
					after = tt.pid
					close(resumed)
				})
				hw := forkFn(b, root, core.Attr{}, func(w exec.Thread) {
					tt := <-reg
					b.readyThread(tt, w.(*thread).pid)
					spinUntil(func() bool { // an idle worker has taken T
						b.mu.Lock()
						defer b.mu.Unlock()
						return tt.state == core.StateRunning
					})
					close(release)
					// Stay on this processor until T is back.
					spinUntil(func() bool {
						select {
						case <-resumed:
							return true
						default:
							return false
						}
					})
				})
				mustJoin(b, root, ht, hw)
			})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if before == after {
				t.Errorf("T parked on processor %d and came back on it: want the resumer's", before)
			}
		})
	}
}

// TestLoopAdoptsOwnSuccessor: on one processor under FIFO, A's exit
// finds the unstarted B next in line, so A's carrier yields B, the
// worker puts the now idle carrier back and launches B on it. The run
// needs exactly two carriers (root's and the one A and B share). At three
// processors the same program only has to complete: idle workers may
// take B first.
func TestLoopAdoptsOwnSuccessor(t *testing.T) {
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			b := newPolicyBackend(t, sched.FIFO, Config{Procs: procs})
			var ran atomic.Int32
			_, err := execute(t, b, func(root exec.Thread) {
				body := func(exec.Thread) { ran.Add(1) }
				ha := forkFn(b, root, core.Attr{}, body)
				hb := forkFn(b, root, core.Attr{}, body)
				mustJoin(b, root, ha, hb)
			})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if ran.Load() != 2 {
				t.Fatalf("ran %d bodies, want 2", ran.Load())
			}
			if lc := b.carriers.Started(); procs == 1 && lc != 2 {
				t.Errorf("started %d carriers, want 2: B did not ride A's", lc)
			}
		})
	}
}

// TestProcessorReturnedOnce runs a sync-heavy program — every blocking
// shape, with wakers and waiters on different processors — on every
// store, and checks that each park is resumed exactly once: every
// dispatch is either a thread's launch or the resume of one park (a
// resume too many for a carrier's parks panics in core.Carriers.Resume,
// and a park never resumed hangs the run).
func TestProcessorReturnedOnce(t *testing.T) {
	stores := []struct {
		name   string
		policy sched.Kind
	}{
		{"global", sched.ADF},
		{"sharded", sched.ADFShard},
	}
	const threads, rounds = 8, 300
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			forEachPool(t, func(t *testing.T, warm bool) {
				reg := metrics.NewRegistry()
				b := newPoolBackend(t, s.policy, Config{Procs: 4, Metrics: reg}, warm)
				var (
					mu  exec.Mutex
					cv  exec.Cond
					sem exec.Semaphore
					bar exec.Barrier
				)
				bar.Init(threads)
				turn, total := 0, 0
				st, err := execute(t, b, func(root exec.Thread) {
					hs := make([]exec.Thread, threads)
					for i := range hs {
						i := i
						hs[i] = forkFn(b, root, core.Attr{}, func(c exec.Thread) {
							for r := 0; r < rounds; r++ {
								// Round-robin under a condition: all but one
								// thread block, and the one that runs wakes
								// them all.
								mu.Lock(b, c)
								for turn%threads != i {
									cv.Wait(b, c, &mu)
								}
								turn++
								total++
								cv.Broadcast(b, c)
								mu.Unlock(b, c)
								sem.Post(b, c)
								sem.Wait(b, c)
								if r%16 == 0 {
									bar.Wait(b, c)
								}
								b.Yield(c)
							}
						})
					}
					mustJoin(b, root, hs...)
				})
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if total != threads*rounds {
					t.Errorf("critical section ran %d times, want %d", total, threads*rounds)
				}
				dispatches := st.Metrics.Counters["sched.dispatches"]
				resumes := st.Metrics.Histograms["sched.resume.handoff"].Count
				if dispatches != st.ThreadsCreated+resumes {
					t.Errorf("%d dispatches for %d launches and %d resumes: a park was resumed twice",
						dispatches, st.ThreadsCreated, resumes)
				}
			})
		})
	}
}

// TestNoWorkerBetweenThreads: on one processor a fork/join tree always
// has a successor — the child at a fork, the policy's next thread at
// every join and exit — so the worker dispatches the root and is not
// reached again until the run ends.
func TestNoWorkerBetweenThreads(t *testing.T) {
	forEachPool(t, func(t *testing.T, warm bool) {
		const depth = 10 // 2^10 - 1 threads besides the root
		b := newPoolBackend(t, sched.ADF, Config{Procs: 1}, warm)
		var tree func(t exec.Thread, d int)
		tree = func(t exec.Thread, d int) {
			if d == 0 {
				return
			}
			l := forkFn(b, t, core.Attr{}, func(c exec.Thread) { tree(c, d-1) })
			r := forkFn(b, t, core.Attr{}, func(c exec.Thread) { tree(c, d-1) })
			mustJoin(b, t, l, r)
		}
		st, err := execute(t, b, func(root exec.Thread) { tree(root, depth) })
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if st.ThreadsCreated != 1<<(depth+1)-1 {
			t.Fatalf("created %d threads, want %d", st.ThreadsCreated, 1<<(depth+1)-1)
		}
		if n := b.workers[0].wakeups; n != 1 {
			t.Errorf("worker dispatched %d times for %d threads, want once", n, st.ThreadsCreated)
		}
	})
}

// TestNoGoroutineLeaks drives every terminal path of a run; execute
// checks the goroutine count after each.
func TestNoGoroutineLeaks(t *testing.T) {
	// parkMany leaves n started threads parked on sem: under ADF each
	// fork runs the child at once, and the child blocks. These are the
	// threads riding the carriers the shutdown walk must unwind.
	const n = 1000
	parkMany := func(b *Backend, root exec.Thread, sem *exec.Semaphore, detachOdd bool) []exec.Thread {
		hs := make([]exec.Thread, n)
		for i := range hs {
			hs[i] = forkFn(b, root, core.Attr{Detached: detachOdd && i%2 == 1}, func(c exec.Thread) { sem.Wait(b, c) })
		}
		return hs
	}
	release := func(b *Backend, c exec.Thread, sem *exec.Semaphore) {
		for i := 0; i < n; i++ {
			sem.Post(b, c)
		}
	}
	var undispatched []exec.Thread
	paths := []struct {
		name    string
		policy  sched.Kind
		procs   int
		wantErr bool
		main    func(b *Backend, root exec.Thread)
		after   func(t *testing.T) // extra checks once the run is over
	}{
		{"clean", sched.ADF, 3, false, func(b *Backend, root exec.Thread) {
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(exec.Thread) {}))
		}, nil},
		{"panic", sched.ADF, 3, true, func(b *Backend, root exec.Thread) {
			parkMany(b, root, new(exec.Semaphore), false) // parked when the run fails
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(exec.Thread) { panic("boom") }))
		}, nil},
		{"deadlock", sched.ADF, 3, true, func(b *Backend, root exec.Thread) {
			mustJoin(b, root, parkMany(b, root, new(exec.Semaphore), false)...)
		}, nil},
		{"exit-from-depth", sched.ADF, 3, false, func(b *Backend, root exec.Thread) {
			var dive func(c exec.Thread, d int)
			dive = func(c exec.Thread, d int) {
				if d == 0 {
					b.Exit(c)
				}
				dive(c, d-1)
			}
			sem := new(exec.Semaphore)
			parkMany(b, root, sem, false)
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(c exec.Thread) {
				release(b, c, sem)
				dive(c, 64)
			}))
			dive(root, 8)
		}, nil},
		{"unjoined", sched.ADF, 3, false, func(b *Backend, root exec.Thread) {
			sem := new(exec.Semaphore)
			parkMany(b, root, sem, true)
			release(b, root, sem)
		}, nil},
		// FIFO enqueues a forked child and lets the parent run on, and at
		// p = 1 nobody else picks the children up: when the root panics they
		// were created but never dispatched, have no carrier, and the walk
		// has nothing to stop.
		{"never-dispatched", sched.FIFO, 1, true, func(b *Backend, root exec.Thread) {
			undispatched = undispatched[:0]
			for i := 0; i < 8; i++ {
				undispatched = append(undispatched, forkFn(b, root, core.Attr{}, func(exec.Thread) {}))
			}
			panic("boom")
		}, func(t *testing.T) {
			for _, h := range undispatched {
				if c := h.(*thread); c.state != core.StateReady || c.carrier != nil {
					t.Errorf("%s: state %v, carrier %p; want never dispatched, never launched",
						c.Name(), c.state, c.carrier)
				}
			}
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			forEachPool(t, func(t *testing.T, warm bool) {
				b := newPoolBackend(t, p.policy, Config{Procs: p.procs}, warm)
				_, err := execute(t, b, func(root exec.Thread) { p.main(b, root) })
				if (err != nil) != p.wantErr {
					t.Errorf("Execute error = %v, want error: %v", err, p.wantErr)
				}
				if p.after != nil {
					p.after(t)
				}
			})
		})
	}
}
