package native

// The runnext slot (native.go): a woken thread waits in its waker's
// worker's slot, where the owner takes it at its next give-up and an
// idle worker claims it once it has waited out the grace.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/modelcheck"
)

// signalSpy stands in for b.mu as b.cond's locker in the model, so the
// model sees each idle-worker signal: signalIfIdle takes the cond's lock
// exactly when it signals.
type signalSpy struct{ n int }

func (s *signalSpy) Lock()   { s.n++ }
func (s *signalSpy) Unlock() {}

// TestRunnextModel enumerates every interleaving of the slot protocol's
// three parties, gated one slot or idleA access at a time through
// runnextStep: an owner (worker 0) that wakes x into its slot and, in
// the "give-up" arm, then gives its processor up (own); a thief (worker
// 1) that looks at the other slots once; and a worker going idle
// (worker 2) that tries the slots, bumps idleA, re-checks (anyReady) and
// sleeps unless it saw work, until a signal wakes it. In the
// "computes-on" arm the owner never gives up, so only the thief or the
// idle worker can run x. Every interleaving must dispatch x exactly once:
// never twice (the owner's Swap and a thief's CAS race for it), and
// never zero times with the idle worker asleep (a lost wakeup).
func TestRunnextModel(t *testing.T) {
	defer func() { runnextStep = nil }()
	for _, giveUp := range []bool{true, false} {
		name, rounds := "computes-on", 2
		if giveUp {
			name, rounds = "give-up", 1
		}
		t.Run(name, func(t *testing.T) {
			var byWho [3]int // interleavings in which each party ran x
			runs := modelcheck.Explore(t, func(s *modelcheck.Sched) ([]func(), func()) {
				b := newPolicyBackend(t, "adf", Config{Procs: 3})
				spy := &signalSpy{}
				b.cond = sync.NewCond(spy)
				x := &thread{b: b}
				runnextStep = func(pid int) { s.Step(pid, nil) }
				var (
					got         [3]*thread // what each party dispatched
					done        [2]bool    // the owner and the thief have returned
					slept       bool       // the idle worker sleeps for good
					signalsSeen int
				)
				owner := func() {
					b.readyThread(x, 0)
					if giveUp {
						got[0] = b.own(0, nil)
					}
					done[0] = true
				}
				thief := func() {
					got[1] = b.stealRunnext(1)
					done[1] = true
				}
				idler := func() {
					// next's loop, from a take that found nothing: going
					// idle, then a slot steal; a second pass only when the
					// owner computes on, as it cannot be needed otherwise.
					for range rounds {
						s.Step(2, nil)
						b.idleA.Add(1)
						signalsSeen = spy.n
						if !b.anyReady(2) {
							// cond.Wait: until a signal, or for good once the
							// others are done.
							s.Step(2, func() bool { return spy.n > signalsSeen || done[0] && done[1] })
							if spy.n == signalsSeen {
								slept = true
								return
							}
						}
						s.Step(2, nil)
						b.idleA.Add(-1)
						if got[2] = b.stealRunnext(2); got[2] != nil {
							return
						}
					}
				}
				return []func(){owner, thief, idler}, func() {
					n := 0
					for p, g := range got {
						switch g {
						case nil:
						case x:
							n++
							byWho[p]++
						default:
							t.Errorf("steps %v: party %d dispatched %p, want x", s.Order, p, g)
						}
					}
					switch {
					case n > 1:
						t.Errorf("steps %v: x dispatched %d times (owner, thief, idle: %v)", s.Order, n, got)
					case n == 0 && slept:
						t.Errorf("steps %v: x stranded in the slot while the idle worker sleeps", s.Order)
					case n == 0:
						t.Errorf("steps %v: x never dispatched", s.Order)
					}
				}
			})
			t.Logf("%d interleavings; x ran on owner, thief, idle worker: %v", runs, byWho)
			if byWho[1] == 0 || byWho[2] == 0 || giveUp && byWho[0] == 0 {
				t.Errorf("x ran on owner, thief, idle worker %v times: want every party that can take it to", byWho)
			}
		})
	}
}

// TestWokenThreadRunsWhileWakerComputes: a waker posts a semaphore and
// then computes, making no runtime call, until the woken thread has run.
// The woken thread waits in the waker's slot, so only an idle worker's
// grace-period claim can run it; without that claim the waker would spin
// forever.
func TestWokenThreadRunsWhileWakerComputes(t *testing.T) {
	const limit = 2 * time.Second
	var slowest time.Duration
	for rep := 0; rep < 50; rep++ {
		b := newPolicyBackend(t, "adf", Config{Procs: 2})
		var sem exec.Semaphore
		var ran atomic.Bool
		var waited time.Duration
		_, err := execute(t, b, func(root core.Handle) {
			h := forkFn(b, root, core.Attr{}, func(c core.Handle) {
				sem.Wait(b, c)
				ran.Store(true)
			})
			sem.Post(b, root)
			t0 := time.Now()
			for !ran.Load() && time.Since(t0) < limit {
			}
			waited = time.Since(t0)
			mustJoin(b, root, h)
		})
		if err != nil {
			t.Fatalf("rep %d: Execute: %v", rep, err)
		}
		if waited >= limit {
			t.Fatalf("rep %d: the woken thread had not run after %v of its waker computing", rep, waited)
		}
		slowest = max(slowest, waited)
	}
	t.Logf("slowest run of the woken thread: %v after the post", slowest)
}
