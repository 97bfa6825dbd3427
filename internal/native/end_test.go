package native

// A small-scope model check of run end (native.go idleLocked): two
// workers, one exiting the run's last live thread while the other goes
// idle. Each participant runs the shipped exitThread and idleLocked;
// the test stands in for b.mu and b.cond, so the explorer schedules
// every lock acquisition and wake-up, and modelcheck.Explore enumerates
// every interleaving of them.

import (
	"strings"
	"testing"
	"time"

	"spthreads/internal/modelcheck"
)

// TestRunEndModel enumerates every interleaving of worker 0 exiting a
// thread forked on worker 1 and then going idle, and worker 1 going idle.
// In the "clean" arm that thread was the last one live; in the
// "deadlock" arm another thread stays blocked. Every interleaving must
// end the run exactly once, as a clean end or a deadlock as the arm
// says, with both workers leaving: no worker asleep for good (a missed
// end) and no deadlock reported while a thread still runs.
//
// Removing idleLocked's re-check of done makes a worker woken by the end
// go idle again, waiting for a worker that has left; reading the live
// cells whenever a worker goes idle, rather than at quiescence, reports
// a deadlock while the last thread still runs. Either fails here.
func TestRunEndModel(t *testing.T) {
	for _, blocked := range []int64{0, 1} {
		name := "clean"
		if blocked > 0 {
			name = "deadlock"
		}
		t.Run(name, func(t *testing.T) {
			runs := modelcheck.Explore(t, func(s *modelcheck.Sched) ([]func(), func()) {
				b := newTestBackend(t, 2)
				w1 := b.workers[1]
				last := &thread{b: b, stackSize: 8, detached: true}
				// last and any blocked thread were forked on worker 1.
				w1.live = 1 + blocked
				b.stackAlloc(w1, 8)
				held := -1 // the participant holding the stand-in for b.mu
				var (
					ends  int     // idleLocked calls that ended the run
					left  [2]bool // the worker's next returned
					stuck [2]bool // the worker sleeps for good
				)
				idle := func(p int) {
					for !stuck[p] {
						s.Step(p, func() bool { return held < 0 })
						held = p
						wasDone := b.done.Load()
						over := b.idleLocked(p, func() {
							// cond.Wait: until the run ends, or for good once
							// the other worker has left.
							held = -1
							s.Step(p, func() bool { return !wasDone && b.done.Load() || left[1-p] })
							stuck[p] = wasDone || !b.done.Load()
							s.Step(p, func() bool { return held < 0 })
							held = p
						})
						held = -1
						if over && !wasDone {
							ends++
						}
						if over {
							left[p] = true
							return
						}
					}
				}
				exiter := func() {
					s.Step(0, nil)
					b.exitThread(last)
					idle(0)
				}
				return []func(){exiter, func() { idle(1) }}, func() {
					deadlock := b.err != nil && strings.Contains(b.err.Error(), "deadlock")
					switch {
					case stuck[0] || stuck[1]:
						t.Errorf("steps %v: a worker sleeps for good after the run's last exit (stuck %v)", s.Order, stuck)
					case !left[0] || !left[1]:
						t.Errorf("steps %v: worker left %v, want both", s.Order, left)
					case ends != 1:
						t.Errorf("steps %v: the run ended %d times, want once", s.Order, ends)
					case blocked == 0 && b.err != nil:
						t.Errorf("steps %v: clean run reported %v", s.Order, b.err)
					case blocked > 0 && !deadlock:
						t.Errorf("steps %v: blocked thread not reported: err %v", s.Order, b.err)
					}
				}
			})
			t.Logf("%d interleavings", runs)
		})
	}
}

// TestLastSleeperEndsRun: the run's last thread has exited, but a timer
// still counted in sleepers keeps the only worker from ending the run,
// so it waits. The timer's last phase then drops the count (a thread it
// woke has run to exit meanwhile); that must wake the worker to end the
// run, or it waits for good.
func TestLastSleeperEndsRun(t *testing.T) {
	b := newTestBackend(t, 1)
	b.sleepers = 1
	over := make(chan *thread)
	go func() { over <- b.next(0) }()
	for waiting := false; !waiting; {
		b.mu.Lock()
		waiting = b.idle == 1 // set with b.mu held until cond.Wait releases it
		b.mu.Unlock()
	}
	b.addSleeper(-1)
	select {
	case th := <-over:
		if th != nil || !b.done.Load() || b.err != nil {
			t.Errorf("next returned %v with done %v, err %v: want a clean end", th, b.done.Load(), b.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the worker still waits after the last timer went")
	}
}
