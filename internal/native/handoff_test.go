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
func execute(t *testing.T, b *Backend, main func(core.Handle)) (core.Stats, error) {
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
func forkFn(b *Backend, t core.Handle, attr core.Attr, fn func(core.Handle)) core.Handle {
	return b.Fork(t, attr, core.Func(fn))
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

func mustJoin(b *Backend, t core.Handle, hs ...core.Handle) {
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

// marked counts the running marks made so far on b, which needs a
// registry: the workers' dispatch counters are atomic, so a thread can
// watch another be marked running without a race.
func marked(b *Backend) (n int64) {
	for _, w := range b.workers {
		n += w.dispatches.Value()
	}
	return n
}

// TestHandoffPickEachOther: T and M hold two processors, and each
// readies the other while both are between blockPrep and their park, so
// each waits in the other's runnext slot. M gives up first and picks T
// from its slot, so M's worker waits for T to yield; T then picks M,
// already parked: each worker resumes the other's thread, and the two
// swap processors. Nothing is idle meanwhile — both processors are out —
// so the picks are exactly these.
func TestHandoffPickEachOther(t *testing.T) {
	forEachPool(t, func(t *testing.T, warm bool) {
		b := newPoolBackend(t, sched.FIFO, Config{Procs: 2, Metrics: metrics.NewRegistry()}, warm)
		prepped := [2]chan *thread{make(chan *thread, 1), make(chan *thread, 1)}
		mReadied, goM := make(chan struct{}), make(chan struct{})
		var before, after [2]int
		_, err := execute(t, b, func(root core.Handle) {
			ht := forkFn(b, root, core.Attr{}, func(et core.Handle) {
				tt := et.(*thread)
				before[0] = tt.pid
				b.blockPrep(tt)
				prepped[0] <- tt
				b.readyThread(<-prepped[1], tt.pid)
				<-mReadied
				marks := marked(b)
				close(goM)
				// M has picked T: the one mark this can be, as no
				// processor is idle and T is in M's slot.
				spinUntil(func() bool { return marked(b) > marks })
				tt.blockPark()
				after[0] = tt.pid
			})
			hm := forkFn(b, root, core.Attr{}, func(et core.Handle) {
				tm := et.(*thread)
				before[1] = tm.pid
				b.blockPrep(tm)
				prepped[1] <- tm
				b.readyThread(<-prepped[0], tm.pid)
				close(mReadied)
				<-goM
				tm.blockPark()
				after[1] = tm.pid
			})
			mustJoin(b, root, ht, hm)
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

// TestHandoffPickSelf: a thread a timer readies between blockPrep and
// its park (into its own processor's shard) is the only ready thread
// when it gives its processor up, so it picks itself; and a thread that
// yields with nothing else ready does the same. Both keep the processor without a switch, and neither involves
// a worker's own pick: the only worker dispatches are the ones that
// started each processor's first thread.
func TestHandoffPickSelf(t *testing.T) {
	forEachPool(t, func(t *testing.T, warm bool) {
		b := newPoolBackend(t, sched.FIFO, Config{Procs: 3}, warm)
		reg := make(chan *thread, 1)
		release, finish := make(chan struct{}), make(chan struct{})
		var pids [2]int
		_, err := execute(t, b, func(root core.Handle) {
			ht := forkFn(b, root, core.Attr{}, func(et core.Handle) {
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
			hold := forkFn(b, root, core.Attr{}, func(core.Handle) { <-finish })
			hw := forkFn(b, root, core.Attr{}, func(core.Handle) {
				b.addSleeper(1) // as Sleep does before arming the timer
				b.wakeSleeper(<-reg)
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
			b := newPolicyBackend(t, sched.FIFO, Config{Procs: 4, Metrics: metrics.NewRegistry()})
			reg := make(chan *thread, 1)
			release, resumed := make(chan struct{}), make(chan struct{})
			var before, after int
			_, err := execute(t, b, func(root core.Handle) {
				ht := forkFn(b, root, core.Attr{}, func(et core.Handle) {
					tt := et.(*thread)
					before = tt.pid
					b.blockPrep(tt)
					reg <- tt
					<-release
					tt.blockPark()
					after = tt.pid
					close(resumed)
				})
				hw := forkFn(b, root, core.Attr{}, func(w core.Handle) {
					tt := <-reg
					before := marked(b)
					b.readyThread(tt, w.(*thread).pid)
					// An idle worker has taken T: the only ready thread.
					spinUntil(func() bool { return marked(b) > before })
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
			_, err := execute(t, b, func(root core.Handle) {
				body := func(core.Handle) { ran.Add(1) }
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

// stores names a policy for each shape of the native ready store: one
// shard in sequence order (FIFO), and the per-worker DePa-ordered shards
// every ADF-family policy runs on.
var stores = []struct {
	name   string
	policy sched.Kind
}{
	{"sequence", sched.FIFO},
	{"sharded", sched.ADF},
}

// TestProcessorReturnedOnce runs a sync-heavy program — every blocking
// shape, with wakers and waiters on different processors — on every
// store, and checks that each park is resumed exactly once: every
// dispatch is either a thread's launch or the resume of one park (a
// resume too many for a carrier's parks panics in core.Carriers.Resume,
// and a park never resumed hangs the run).
func TestProcessorReturnedOnce(t *testing.T) {
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
				st, err := execute(t, b, func(root core.Handle) {
					hs := make([]core.Handle, threads)
					for i := range hs {
						i := i
						hs[i] = forkFn(b, root, core.Attr{}, func(c core.Handle) {
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

// TestNoWorkerBetweenThreads: on one processor a program that always
// leaves a thread ready when another gives its processor up never needs
// the worker's own pick: the successor is the child at a fork, and the
// leftmost ready thread at every exit, join, block, yield and Sleep(0).
// The worker dispatches the root and is not reached again until the run
// ends. The fork/join tree runs on the one-shard sequence store (FIFO)
// as well as on the DePa shards; the block-heavy program, on the default
// (sharded) store.
func TestNoWorkerBetweenThreads(t *testing.T) {
	const depth = 10 // 2^10 - 1 threads besides the root
	tree := func(b *Backend, root core.Handle) {
		var node func(t core.Handle, d int)
		node = func(t core.Handle, d int) {
			if d == 0 {
				return
			}
			l := forkFn(b, t, core.Attr{}, func(c core.Handle) { node(c, d-1) })
			r := forkFn(b, t, core.Attr{}, func(c core.Handle) { node(c, d-1) })
			mustJoin(b, t, l, r)
		}
		node(root, depth)
	}
	// blocky ping-pongs two semaphores with a partner that yields and
	// sleeps between rounds, then joins a child that is still live: the
	// child blocks at once, and the join's successor is the child again,
	// readied by the root just before.
	blocky := func(b *Backend, root core.Handle) {
		const rounds = 200
		var ping, pong, gate exec.Semaphore
		partner := forkFn(b, root, core.Attr{}, func(c core.Handle) {
			for i := 0; i < rounds; i++ {
				ping.Wait(b, c)
				b.Yield(c)
				b.Sleep(c, 0)
				pong.Post(b, c)
			}
		})
		for i := 0; i < rounds; i++ {
			ping.Post(b, root)
			pong.Wait(b, root)
			b.Yield(root)
		}
		mustJoin(b, root, partner)
		child := forkFn(b, root, core.Attr{}, func(c core.Handle) { gate.Wait(b, c) })
		gate.Post(b, root)
		mustJoin(b, root, child)
	}
	arms := []struct {
		name    string
		policy  sched.Kind
		main    func(b *Backend, root core.Handle)
		threads int64
	}{
		{"sequence-tree", sched.FIFO, tree, 1<<(depth+1) - 1},
		{"sharded-tree", sched.ADF, tree, 1<<(depth+1) - 1},
		{"sharded-blocky", sched.ADF, blocky, 3},
	}
	forEachPool(t, func(t *testing.T, warm bool) {
		for _, a := range arms {
			t.Run(a.name, func(t *testing.T) {
				b := newPoolBackend(t, a.policy, Config{Procs: 1}, warm)
				st, err := execute(t, b, func(root core.Handle) { a.main(b, root) })
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if st.ThreadsCreated != a.threads {
					t.Fatalf("created %d threads, want %d", st.ThreadsCreated, a.threads)
				}
				if n := b.workers[0].wakeups; n != 1 {
					t.Errorf("worker dispatched %d times for %d threads, want once", n, st.ThreadsCreated)
				}
			})
		}
	})
}

// TestNoDispatchAfterPanic: once a thread's panic has failed the run, no
// processor dispatches another thread, on either store. The root readies
// 100 threads and panics; at one processor none of them may run after
// the run failed, and at four only those another processor had already
// dispatched (at most one each) may finish their bodies. A body reads
// the failure itself (the atomic b.done), not a flag the root sets
// before it panics: the root's unwind to the failure point takes long
// enough under -race for other processors to run many bodies legally.
func TestNoDispatchAfterPanic(t *testing.T) {
	const ready = 100
	for _, s := range stores {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", s.name, procs), func(t *testing.T) {
				b := newPolicyBackend(t, s.policy, Config{Procs: procs})
				var after atomic.Int32
				var sem exec.Semaphore
				_, err := execute(t, b, func(root core.Handle) {
					for i := 0; i < ready; i++ {
						forkFn(b, root, core.Attr{Detached: true}, func(c core.Handle) {
							sem.Wait(b, c)
							if b.done.Load() {
								after.Add(1)
							}
						})
					}
					for i := 0; i < ready; i++ {
						sem.Post(b, root)
					}
					panic("boom")
				})
				if err == nil {
					t.Fatal("Execute: no error, want the panic")
				}
				if n := int(after.Load()); n > procs-1 {
					t.Errorf("%d bodies ran after the panic at p=%d, want at most %d", n, procs, procs-1)
				}
			})
		}
	}
}

// TestNoGoroutineLeaks drives every terminal path of a run; execute
// checks the goroutine count after each.
func TestNoGoroutineLeaks(t *testing.T) {
	// parkMany leaves n started threads parked on sem: under ADF each
	// fork runs the child at once, and the child blocks. These are the
	// threads riding the carriers the shutdown walk must unwind.
	const n = 1000
	parkMany := func(b *Backend, root core.Handle, sem *exec.Semaphore, detachOdd bool) []core.Handle {
		hs := make([]core.Handle, n)
		for i := range hs {
			hs[i] = forkFn(b, root, core.Attr{Detached: detachOdd && i%2 == 1}, func(c core.Handle) { sem.Wait(b, c) })
		}
		return hs
	}
	release := func(b *Backend, c core.Handle, sem *exec.Semaphore) {
		for i := 0; i < n; i++ {
			sem.Post(b, c)
		}
	}
	var undispatched []core.Handle
	paths := []struct {
		name    string
		policy  sched.Kind
		procs   int
		wantErr bool
		main    func(b *Backend, root core.Handle)
		after   func(t *testing.T) // extra checks once the run is over
	}{
		{"clean", sched.ADF, 3, false, func(b *Backend, root core.Handle) {
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(core.Handle) {}))
		}, nil},
		{"panic", sched.ADF, 3, true, func(b *Backend, root core.Handle) {
			parkMany(b, root, new(exec.Semaphore), false) // parked when the run fails
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(core.Handle) { panic("boom") }))
		}, nil},
		{"deadlock", sched.ADF, 3, true, func(b *Backend, root core.Handle) {
			mustJoin(b, root, parkMany(b, root, new(exec.Semaphore), false)...)
		}, nil},
		{"exit-from-depth", sched.ADF, 3, false, func(b *Backend, root core.Handle) {
			var dive func(c core.Handle, d int)
			dive = func(c core.Handle, d int) {
				if d == 0 {
					b.Exit(c)
				}
				dive(c, d-1)
			}
			sem := new(exec.Semaphore)
			parkMany(b, root, sem, false)
			mustJoin(b, root, forkFn(b, root, core.Attr{}, func(c core.Handle) {
				release(b, c, sem)
				dive(c, 64)
			}))
			dive(root, 8)
		}, nil},
		{"unjoined", sched.ADF, 3, false, func(b *Backend, root core.Handle) {
			sem := new(exec.Semaphore)
			parkMany(b, root, sem, true)
			release(b, root, sem)
		}, nil},
		// FIFO enqueues a forked child and lets the parent run on, and at
		// p = 1 nobody else picks the children up: when the root panics they
		// were created but never dispatched, have no carrier, and the walk
		// has nothing to stop.
		{"never-dispatched", sched.FIFO, 1, true, func(b *Backend, root core.Handle) {
			undispatched = undispatched[:0]
			for i := 0; i < 8; i++ {
				undispatched = append(undispatched, forkFn(b, root, core.Attr{}, func(core.Handle) {}))
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
				_, err := execute(t, b, func(root core.Handle) { p.main(b, root) })
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
