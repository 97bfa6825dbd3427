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
// behind the embedded *simState (header and state are one allocation,
// see Machine.newThread); the native backend embeds a Thread by value
// in its own per-thread record and leaves simState nil.
type Thread struct {
	// ID is a unique, creation-ordered identifier (root is 1).
	ID int64
	// Priority is the thread's fixed priority level.
	Priority int
	// SchedState is owned by the scheduling policy (e.g. the thread's
	// placeholder entry in the ADF ordered list).
	SchedState any
	// Order is the thread's DePa fork-path label, assigned at fork time
	// on the forking thread's own context (no lock, no shared
	// structure). It evolves as the thread forks — each fork appends a
	// continuation bit — so policies snapshot it at insert time.
	Order DepaLabel
	// Owner is the back-reference from the token a policy hands back
	// (Next, NextBatch) to the backend record that contains it. Only the
	// backend that stored it follows it; policies treat it as opaque, and
	// it is nil for simulator threads and bare tokens.
	Owner any

	*simState
}

// simState is the simulator's private per-thread state. Its fields
// promote through Thread, so the machine writes t.carrier, t.span, …
// directly.
type simState struct {
	m    *Machine
	body Body
	attr Attr

	state   State
	started bool // dispatched at least once (its stack base is faulted in)

	// carrier is the coroutine the thread rides, bound at its first run
	// (nil until then). A thread that hands the machine over yields its
	// successor to the driver, which resumes the successor's carrier.
	carrier *Carrier

	proc    *Proc // processor currently running this thread
	isDummy bool

	// Memory quota (ADF): bytes the thread may still allocate before it
	// is preempted; refreshed each time it is scheduled.
	quotaLeft int64

	// Accounting.
	work vtime.Duration // committed charges attributed to this thread
	span vtime.Duration // critical-path length at the thread's current point
	// sinceYield accumulates charges since the thread last ran the
	// scheduler; crossing Quantum triggers a pause so that
	// processors interleave at bounded virtual-time granularity even
	// through code that never blocks (inline fast paths do not stop
	// otherwise).
	sinceYield vtime.Duration

	// Simulated stack.
	stackAddr, stackSize int64

	// Join protocol: at most one thread may join (POSIX).
	done       bool
	detached   bool
	joiner     *Thread
	joined     bool // a join has been claimed
	exitedSpan vtime.Duration

	// TLS storage for the public API layer.
	TLS map[any]any
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

// Name returns the thread's label, or a synthesized one.
func (t *Thread) Name() string {
	if t.attr.Name != "" {
		return t.attr.Name
	}
	if t.isDummy {
		return fmt.Sprintf("dummy-%d", t.ID)
	}
	return fmt.Sprintf("thread-%d", t.ID)
}

// State returns the thread's current lifecycle state.
func (t *Thread) State() State { return t.state }

// Machine returns the machine the thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

// Work returns the virtual time committed against this thread so far.
func (t *Thread) Work() vtime.Duration { return t.work }

// threadExit is the panic payload used by Exit to unwind a thread.
type threadExit struct{}

// threadAbort is the panic payload used to unwind parked threads when the
// machine shuts down early.
type threadAbort struct{}

// Body is what a simulated thread runs.
type Body interface {
	Run(t *Thread)
}

// Func is a Body that is a plain function.
type Func func(*Thread)

// Run implements Body.
func (f Func) Run(t *Thread) { f(t) }

// rider is a Thread in its carrier's Rider role, kept off Thread's
// method set.
type rider Thread

// Ride binds the thread to its carrier and runs its body. The machine
// tracks processors itself, so pid is unused.
func (r *rider) Ride(c *Carrier, pid int) {
	t := (*Thread)(r)
	t.carrier = c
	t.body.Run(t)
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
