package core

import (
	"fmt"

	"spthreads/internal/vtime"
)

// State is a lightweight thread's lifecycle state.
type State uint8

// Thread lifecycle states.
const (
	StateNew     State = iota // created, never run
	StateReady                // runnable, in the policy's ready structure
	StateRunning              // assigned to a virtual processor
	StateBlocked              // waiting on a sync object or join
	StateExited               // finished
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Attr carries creation attributes, mirroring pthread_attr_t.
type Attr struct {
	// StackSize in bytes; 0 selects the machine's default stack size.
	StackSize int64
	// Priority level; higher values are scheduled before lower ones.
	// Valid range is [0, NumPriorities); creating a thread outside it
	// panics in the creating thread (see CheckPriority).
	Priority int
	// Detached threads release their resources at exit and cannot be
	// joined.
	Detached bool
	// Name is an optional label for traces and error messages.
	Name string
}

// NumPriorities is the number of supported priority levels.
const NumPriorities = 32

// CheckPriority panics when pri is outside [0, NumPriorities). Both
// backends call it at thread creation, in the creating thread's context,
// so a bad Attr.Priority aborts the run and comes back as the run error
// — the same way on the simulator and on native.
func CheckPriority(pri int) {
	if pri < 0 || pri >= NumPriorities {
		panic(fmt.Sprintf("thread priority %d out of range [0, %d)", pri, NumPriorities))
	}
}

// Thread is the policy-visible record of one lightweight thread: the
// small label a scheduling policy orders by, carried by the thread
// itself. A policy reads and writes only the exported fields; bare
// &Thread{ID: n} tokens are enough to drive one.
//
// A simulator thread additionally carries the machine's private state
// behind the embedded *simState, which holds the header itself (one
// record per thread, recycled; see Machine.newThread); the native
// backend embeds a Thread by value in its own per-thread record and
// leaves simState nil.
type Thread struct {
	// ID is a unique, creation-ordered identifier (root is 1).
	ID int64
	// Priority is the thread's fixed priority level.
	Priority int
	// Order is the thread's DePa fork-path label, assigned at fork time
	// on the forking thread's own context (no lock, no shared
	// structure). It evolves as the thread forks — each fork appends a
	// continuation bit — and a thread forks only while it runs, when it
	// is in no ready store, so a stored thread's label is stable. With
	// Priority it places a ready thread in the ready order (Before).
	// The FIFO and LIFO orders of both backends overwrite it with a
	// sequence label each time the thread becomes ready.
	Order DepaLabel

	*simState
}

// Before is the ready order on thread records (ReadyLess on their live
// Priority and Order), the order the ready stores of both backends keep.
func (t *Thread) Before(o *Thread) bool {
	return ReadyLess(t.Priority, t.Order, o.Priority, o.Order)
}

// simState is a simulator thread's record: its Thread header (hdr,
// whose simState points back here) and the machine's private state,
// one object. Its fields promote through Thread, so the machine writes
// t.carrier, t.span, … directly. It is also the thread's Handle: the
// machine hands the record itself to Body and to the pthread layer, and
// each entry point recovers the header from it (checkRunning, rec).
// Records are recycled through the machine's free list with native's
// lifecycle rule (see Machine.release): once recycled, a record
// describes its new thread, so no pointer to an exited thread may be
// read after its last holder has let go.
type simState struct {
	hdr  Thread
	m    *Machine
	body Body
	attr Attr

	// carrier is the coroutine the thread rides, bound at its first run
	// (nil until then). A thread that hands the machine over yields its
	// successor to the driver, which resumes the successor's carrier.
	carrier *Carrier

	proc *Proc // processor currently running this thread

	// Memory quota (ADF): bytes the thread may still allocate before it
	// is preempted; refreshed each time it is scheduled.
	quotaLeft int64

	// Accounting.
	span vtime.Duration // critical-path length at the thread's current point
	// sinceYield accumulates charges since the thread last ran the
	// scheduler; crossing Quantum triggers a pause so that
	// processors interleave at bounded virtual-time granularity even
	// through code that never blocks (inline fast paths do not stop
	// otherwise).
	sinceYield vtime.Duration

	stackAddr int64 // simulated stack base; its size is attr.StackSize

	// Join protocol: at most one thread may join (POSIX).
	joiner     *Thread
	exitedSpan vtime.Duration

	tls map[any]any // thread-local storage for the public API layer

	slot int      // index in Machine.threads while live
	next *freeRec // free-list link

	// Flags, packed into one word.
	state   State
	started bool // dispatched at least once (its stack base is faulted in)
	isDummy bool
	done    bool
	joined  bool // a join has been claimed
	refs    int8 // lifecycle holders left: the exiting thread and, if joinable, the joiner
}

// freeRec is a record in its free-list role, kept off Thread's method
// set.
type freeRec simState

// FreeLink implements the FreeList element constraint.
func (r *freeRec) FreeLink() **freeRec { return &r.next }

// reset scrubs a released record for reuse: every field is zeroed
// except the machine pointer (and the header's back-pointer).
func (s *simState) reset() {
	*s = simState{m: s.m}
	s.hdr.simState = s
}

// actionKind says why a thread stopped and ran the scheduler.
type actionKind uint8

const (
	actNone    actionKind = iota
	actExit               // thread finished
	actBlock              // thread parked on a sync object / join
	actPreempt            // thread returns to the ready structure
	actYield              // voluntary yield (same handling as preempt)
	actPause              // time-quantum pause: stays on its processor
)

type action struct {
	kind actionKind
	// next, when non-nil on a preempt action, is a child thread the
	// processor must run immediately (ADF fork semantics).
	next *Thread
}

// Handle implementation. Name, TLSGet and TLSSet also promote to
// Thread; ID is shadowed there by the header's field.

// ID returns the thread's identifier.
func (s *simState) ID() int64 { return s.hdr.ID }

// Name returns the thread's label, or a synthesized one.
func (s *simState) Name() string {
	if s.attr.Name != "" {
		return s.attr.Name
	}
	if s.isDummy {
		return fmt.Sprintf("dummy-%d", s.hdr.ID)
	}
	return fmt.Sprintf("thread-%d", s.hdr.ID)
}

func (s *simState) TLSGet(key any) any { return s.tls[key] }

func (s *simState) TLSSet(key, val any) {
	if s.tls == nil {
		s.tls = make(map[any]any)
	}
	s.tls[key] = val
}

// threadExit is the panic payload used by Exit to unwind a thread.
type threadExit struct{}

// threadAbort is the panic payload used to unwind parked threads when the
// machine shuts down early.
type threadAbort struct{}

// rider is a Thread in its carrier's Rider role, kept off Thread's
// method set.
type rider Thread

// Ride binds the thread to its carrier and runs its body. The machine
// tracks processors itself, so pid is unused.
func (r *rider) Ride(c *Carrier, pid int) {
	t := (*Thread)(r)
	t.carrier = c
	t.body.Run(t.simState)
}

// Finish runs the scheduler for the exiting thread and returns the
// thread that must run next to the driver.
func (r *rider) Finish(p any) Rider {
	t := (*Thread)(r)
	m := t.m
	if p != nil {
		m.recordPanic(t, p) // user code panicked: record and surface it
	}
	t.sinceYield = 0
	return m.reschedule(t, action{kind: actExit}).rider()
}

// rider returns t in its Rider role, or a nil Rider for a nil t.
func (t *Thread) rider() Rider {
	if t == nil {
		return nil
	}
	return (*rider)(t)
}

// switchOut runs the scheduler on the calling thread: it applies act to
// the machine and advances it to the next thread that must run. If that
// is t itself (a quantum pause, or a yield or preempt with nothing
// better ready) t just carries on; otherwise t yields the successor to
// the driver and parks. It must only be called from t's own body, and
// never for an exit (see rider.Finish).
func (t *Thread) switchOut(act action) {
	t.sinceYield = 0
	next := t.m.reschedule(t, act)
	if next == t {
		return
	}
	t.carrier.Switch(next.rider())
}

// maybePause runs the scheduler if the thread has accumulated more than
// Quantum of virtual time since it last did. Call only from thread
// context at consistent points.
func (t *Thread) maybePause() {
	if t.sinceYield >= Quantum {
		t.switchOut(action{kind: actPause})
	}
}
