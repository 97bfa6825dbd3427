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
// promote through Thread, so the machine writes t.resume, t.span, …
// directly.
type simState struct {
	m    *Machine
	fn   func(*Thread)
	attr Attr

	state   State
	started bool // goroutine launched
	poison  bool // unwound during machine shutdown

	// resume is the coordinator -> thread wakeup. The opposite direction
	// needs no per-thread channel: only one thread runs at a time and the
	// coordinator is the only receiver, so Machine.yield serves them all.
	resume chan struct{}

	action  action
	proc    *Proc // processor currently running this thread
	isDummy bool

	// Memory quota (ADF): bytes the thread may still allocate before it
	// is preempted; refreshed each time it is scheduled.
	quotaLeft int64

	// Accounting.
	work vtime.Duration // committed charges attributed to this thread
	span vtime.Duration // critical-path length at the thread's current point
	// sinceYield accumulates charges since the last handoff; crossing
	// the machine's quantum triggers a pause so that processors
	// interleave at bounded virtual-time granularity even through code
	// that never blocks (inline fast paths do not hand off otherwise).
	sinceYield vtime.Duration
	// sinceDispatch accumulates charges since the thread was last
	// scheduled, for SCHED_RR time slicing.
	sinceDispatch vtime.Duration

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

// actionKind says why a thread handed control back to the coordinator.
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

// start launches the thread's goroutine. Called by the coordinator the
// first time the thread is dispatched; the goroutine parks immediately
// and waits for its first resume.
func (t *Thread) start() {
	t.started = true
	go func() {
		defer func() {
			if r := recover(); r != nil {
				switch r.(type) {
				case threadExit:
					// normal pthread_exit unwind
				case threadAbort:
					// machine shutdown: do not hand back, just die
					t.m.exitCh <- struct{}{}
					return
				default:
					// user code panicked: record and surface it
					t.m.recordPanic(t, r)
				}
			}
			t.finish()
		}()
		t.park()
		t.fn(t)
	}()
}

// park blocks the thread goroutine until the coordinator resumes it.
func (t *Thread) park() {
	<-t.resume
	if t.poison {
		panic(threadAbort{})
	}
}

// switchOut hands control to the coordinator and, unless exiting, blocks
// until rescheduled. It must only be called on the thread's goroutine.
func (t *Thread) switchOut(act action) {
	t.sinceYield = 0
	t.action = act
	t.m.yield <- struct{}{}
	if act.kind != actExit {
		t.park()
	}
}

// maybePause hands off to the coordinator if the thread has accumulated
// more than the machine's quantum of virtual time since its last
// handoff, and enforces the policy's SCHED_RR time slice by yielding
// the processor outright when the slice is spent. Call only from thread
// context at consistent points.
func (t *Thread) maybePause() {
	if slice := t.m.policy.TimeSlice(); slice > 0 && t.sinceDispatch >= slice {
		t.switchOut(action{kind: actYield})
		return
	}
	if t.sinceYield >= t.m.cfg.Quantum {
		t.switchOut(action{kind: actPause})
	}
}

// finish performs the exit handoff at the end of the thread's function
// (or after an Exit unwind).
func (t *Thread) finish() {
	t.switchOut(action{kind: actExit})
}
