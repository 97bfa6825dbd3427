package native

import (
	"fmt"
	"sync/atomic"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// thread is one lightweight thread, riding a pooled carrier goroutine
// (lifecycle.go) from its first dispatch to its exit and parked on the
// carrier's mailbox whenever it does not hold a processor. It is the only
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

	// carrier is the goroutine t rides, bound at its first dispatch
	// (Ride). A dispatcher posts the processor id it hands over into the
	// carrier's one-slot mailbox, or core.PoisonPid at shutdown, and
	// never waits for the thread to reach its park.
	carrier *core.Carrier

	// Record reuse (see lifecycle.go). freeNext links the record in a worker
	// arena; refs counts the lifecycle holders (exiter + joiner)
	// that must release before the record can be recycled.
	freeNext *thread
	refs     atomic.Int32

	isDummy bool
	// started is guarded by b.mu. launch is markRunning's verdict that
	// this dispatch is the thread's first; like dispatchAt it is stable
	// between markRunning and the post, when exactly one dispatcher owns
	// the thread.
	started bool
	launch  bool

	state core.State // guarded by b.mu

	// pid is the processor this thread holds (or last held), written
	// only on its own goroutine from the value its dispatch carried: a
	// thread on its way to its park releases the processor it holds even
	// if another processor has already marked it running again.
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
	// b.mu; the dispatcher issues the KindDispatch ring write after
	// unlocking. postAt stamps a resume post for sched.resume.handoff
	// (dispatcher before the post, woken thread after its receive), on
	// readyAt's clock.
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

	tls map[any]any // only touched by the thread's own goroutine
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

// park waits in the mailbox for the next dispatch and adopts the
// processor it carries.
func (t *thread) park() {
	t.pid = t.carrier.Park()
	if h := t.b.handoff; h != nil {
		h.Observe(t.b.sinceStart() - t.postAt)
	}
}

// passPark gives t's processor to next — the successor t chose in the
// b.mu section that recorded why it stopped, nil to send it home — then
// emits that section's event and parks. The ring write lands in the
// dispatch's shadow, off the successor's critical path, and still
// precedes this goroutine's park and hence the run-end merge. Must be
// called on t's own goroutine.
func (t *thread) passPark(next *thread, at vtime.Time, kind trace.Kind) {
	pid := t.pid
	t.b.pass(pid, next)
	t.b.tracer.recordAt(at, pid, t.ID(), kind, 0)
	t.park()
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
	b.pass(t.pid, next)
	t.park()
}
