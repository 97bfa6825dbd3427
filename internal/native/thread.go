package native

import (
	"fmt"
	"sync/atomic"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// thread is one lightweight thread, riding a pooled carrier coroutine
// (lifecycle.go) from its first dispatch to its exit and parked in it
// whenever it does not hold a processor. It is the only
// per-thread record: the token the policy orders by (tok) lives inside
// it, and tok.Owner leads from a token the policy hands back to the
// record around it. The one-byte fields sit in two groups so padding
// keeps the record at 304 B, inside the 320 B size class; spread among
// the words they push it to 328 B and the next class.
type thread struct {
	b *Backend
	// tok is the policy's view of the thread (ID, Priority, SchedState,
	// Order), passed to every core.Policy call as &t.tok. Owner points
	// back at t; only pick follows it, under b.mu. The simulator state
	// behind the token stays nil.
	tok  core.Thread
	name string // Attr.Name; empty selects a synthesized name
	body exec.Body

	stackSize int64

	// carrier is the coroutine t rides, bound at its first dispatch
	// (Ride); nil until then, which tells the worker to launch t. t can
	// become dispatchable again only in a b.mu section after Ride, so a
	// later worker reads it behind that and resumes t there, waiting on
	// the carrier's mutex if t has not yielded yet.
	carrier *core.Carrier

	// Record reuse (see lifecycle.go). freeNext links the record in a worker
	// arena; refs counts the lifecycle holders (exiter + joiner)
	// that must release before the record can be recycled.
	freeNext *thread
	refs     atomic.Int32

	isDummy bool
	state   core.State // guarded by b.mu

	// pid is the processor this thread holds (or last held), written
	// only on its own coroutine from the value its resume carried: a
	// thread on its way to its park yields to the worker it runs under
	// even if another processor has already marked it running again.
	pid int

	// Sharded-store heap slot: key snapshot and heap index, guarded by
	// the owning shard's lock while the thread sits in a heap. The label
	// is copied at push time so later Forks by other threads cannot
	// disturb the ordering of a parked entry.
	heapLabel core.DepaLabel
	heapPri   int
	heapIdx   int

	// readyAt stamps the last transition into the ready structure, for
	// the dispatch-latency histogram, in monotonic ns since b.start
	// (guarded by b.mu; zero when a registry is not attached or the
	// thread is not ready).
	readyAt int64

	// dispatchAt is the tracer timestamp captured by markRunning under
	// b.mu; the worker issues the KindDispatch ring write after
	// unlocking. postAt stamps a resume for sched.resume.handoff (worker
	// before the resume, the thread once it runs), on readyAt's clock.
	dispatchAt vtime.Time
	postAt     int64

	// Accounting written only in thread context while running.
	quotaLeft int64
	work      vtime.Duration
	span      vtime.Duration

	// Join protocol, guarded by b.mu.
	done       bool
	detached   bool
	joined     bool
	joiner     *thread
	exitedSpan vtime.Duration

	tls map[any]any // only touched by the thread's own body
}

// rider returns t in its core.Rider role, or a nil Rider for a nil t.
func (t *thread) rider() core.Rider {
	if t == nil {
		return nil
	}
	return t
}

// exec.Thread implementation.

func (t *thread) ID() int64 { return t.tok.ID }

func (t *thread) Name() string {
	if t.name != "" {
		return t.name
	}
	if t.isDummy {
		return fmt.Sprintf("dummy-%d", t.ID())
	}
	return fmt.Sprintf("thread-%d", t.ID())
}

func (t *thread) TLSGet(key any) any {
	if t.tls == nil {
		return nil
	}
	return t.tls[key]
}

func (t *thread) TLSSet(key, val any) {
	if t.tls == nil {
		t.tls = make(map[any]any)
	}
	t.tls[key] = val
}

// passPark gives t's processor to next — the successor t chose in the
// b.mu section that recorded why it stopped — after emitting that
// section's event, while t still holds the processor. Must be called
// from t's own body.
func (t *thread) passPark(next *thread, at vtime.Time, kind trace.Kind) {
	t.b.tracer.recordAt(at, t.pid, t.ID(), kind, 0)
	t.switchTo(next)
}

// blockPark gives t's processor up after blockPrep and registration
// with a waiter list. The successor is chosen here, in a second b.mu
// section, so threads readied since blockPrep (a cond wait's mutex
// handoff; t itself, if a waker already got to it) compete in policy
// order.
func (t *thread) blockPark() {
	b := t.b
	b.lock()
	next := b.pick(t.pid)
	b.mu.Unlock()
	t.switchTo(next)
}

// switchTo yields next (nil: the worker picks) to t's worker and parks
// until a worker resumes t, adopting that worker's processor. A thread
// that picked itself keeps its processor and does not switch: a resume
// with no handoff delay.
func (t *thread) switchTo(next *thread) {
	b := t.b
	if next == t {
		b.tracer.recordAt(t.dispatchAt, t.pid, t.ID(), trace.KindDispatch, 0)
		b.handoff.Observe(0)
		return
	}
	t.pid = t.carrier.Switch(next.rider())
	if h := b.handoff; h != nil {
		h.Observe(b.sinceStart() - t.postAt)
	}
}
