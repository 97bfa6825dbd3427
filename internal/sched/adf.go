package sched

import (
	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// adfPolicy is the paper's space-efficient scheduler, a variation of the
// Narlikar–Blelloch AsyncDF algorithm implemented inside a Pthreads-style
// library:
//
//   - Every created-but-not-exited thread keeps a placeholder entry in a
//     globally ordered list that maintains the threads in their serial,
//     depth-first execution order. Entries of blocked or executing
//     threads simply have their ready flag cleared, so a woken or
//     preempted thread resumes at exactly its serial position.
//   - A forked child is inserted to the immediate left of its parent and
//     the parent is preempted; the forking processor runs the child.
//   - Processors always dispatch the leftmost ready thread (within the
//     highest nonempty priority level; the paper's policy is prioritized).
//   - Each time a thread is scheduled it receives a memory quota of K
//     bytes; allocation draws the quota down and exhausting it preempts
//     the thread. An allocation of m > K bytes first forks ~m/K no-op
//     dummy threads (as a binary tree) to throttle allocation-hungry
//     threads.
//
// The guarantee is S_1 + O(p·D) space on p processors for a computation
// with serial space S_1 and critical path (depth) D.
//
// The ordered list itself is pluggable (adfLevel): the production store
// keeps the serial order in DePa fork-path labels carried by the
// threads themselves — left-of is a local lexicographic compare and
// dispatch is a deque pop over just the ready set (adfDepa). The tests
// substitute the seed's O(n) scanning linked list and the
// order-statistic treap that preceded the labels through the same
// seam, as differential oracles: all three stores present the
// identical serial order, so the dispatch sequence (and therefore every
// virtual-time result) is unchanged across them.
type adfPolicy struct {
	name string
	// levels are built by newLevel on a priority's first use: programs
	// use one or two of the NumPriorities levels, and a run should not
	// pay for the rest.
	levels   [core.NumPriorities]adfLevel
	newLevel func() adfLevel
	ready    int            // ready entries across all levels
	live     int            // placeholder entries across all levels
	batch    []*core.Thread // NextBatch's result, reused call to call

	// gLive mirrors live into an attached metrics registry (a nil
	// handle is a no-op), exposing the placeholder-list length — the
	// quantity the S_1 + O(p·D) bound constrains — over the run.
	gLive *metrics.Gauge // adf.placeholders
}

// attachMetrics binds the policy's gauge to a registry.
func (p *adfPolicy) attachMetrics(r *metrics.Registry) {
	p.gLive = r.Gauge("adf.placeholders")
}

// note publishes the live count after it changes; a single nil check
// when no registry is attached.
func (p *adfPolicy) note() { p.gLive.Set(int64(p.live)) }

// adfLevel is one priority level's ordered placeholder structure. The
// sequence of entries is the serial depth-first order; implementations
// own the per-thread entry stored in Thread.SchedState.
type adfLevel interface {
	// insertHead places t leftmost (earliest in serial order).
	insertHead(t *core.Thread)
	// insertBefore places child immediately left of parent's entry.
	insertBefore(child, parent *core.Thread)
	// remove deletes t's entry; t must not be ready.
	remove(t *core.Thread)
	// setReady marks t ready, reporting whether it was not.
	setReady(t *core.Thread) bool
	// readyCount returns the number of ready entries.
	readyCount() int
	// takeLeftmostReady clears and returns the leftmost ready entry's
	// thread, or nil if none is ready.
	takeLeftmostReady() *core.Thread
	// count returns the number of entries (the tests check it against
	// the policy's live counter).
	count() int
}

func newADF() *adfPolicy {
	return &adfPolicy{name: "adf", newLevel: func() adfLevel { return &adfDepa{} }}
}

func (p *adfPolicy) Name() string { return p.name }
func (p *adfPolicy) Global() bool { return true }

// level returns t's priority level, building it on first use.
func (p *adfPolicy) level(t *core.Thread) adfLevel {
	l := p.levels[t.Priority]
	if l == nil {
		l = p.newLevel()
		p.levels[t.Priority] = l
	}
	return l
}

func (p *adfPolicy) OnCreate(parent, child *core.Thread) bool {
	p.live++
	l := p.level(child)
	if parent == nil {
		// Root thread: sole entry, runnable.
		l.insertHead(child)
		l.setReady(child)
		p.ready++
		p.note()
		return false
	}
	if parent.SchedState != nil && parent.Priority == child.Priority {
		// Immediately left of the parent: the child precedes the parent
		// in the serial depth-first order.
		l.insertBefore(child, parent)
	} else {
		// Cross-priority forks have no serial anchor in the child's
		// level; the leftmost position is the conservative choice.
		l.insertHead(child)
	}
	p.note()
	// The child runs immediately (not ready: it is about to execute) and
	// the parent is preempted; the machine re-enters the parent through
	// OnReady, which restores its ready flag in place.
	return true
}

func (p *adfPolicy) OnReady(t *core.Thread, pid int) {
	if p.level(t).setReady(t) {
		p.ready++
	}
}

// OnBlock does nothing: a blocking thread was running, so its entry is
// already not-ready, and it stays in place as the paper's placeholder.
func (p *adfPolicy) OnBlock(t *core.Thread) {}

func (p *adfPolicy) OnExit(t *core.Thread) {
	p.level(t).remove(t)
	t.SchedState = nil
	p.live--
	p.note()
}

func (p *adfPolicy) Next(pid int) *core.Thread {
	if p.ready == 0 {
		return nil
	}
	for pri := core.NumPriorities - 1; pri >= 0; pri-- {
		l := p.levels[pri]
		if l == nil || l.readyCount() == 0 {
			continue
		}
		p.ready--
		return l.takeLeftmostReady()
	}
	return nil
}

// NextBatch implements core.BatchNexter: it removes up to n ready
// threads in exactly the order n successive Next calls would have
// dispatched them (leftmost-ready first within the highest non-empty
// priority), for the batched two-level scheduler's refill pass. The
// oracle stores share this implementation, so the differential suite
// exercises batching on every side. The result is valid until the next
// call, which reuses it.
func (p *adfPolicy) NextBatch(pid, n int) []*core.Thread {
	out := p.batch[:0]
	for len(out) < n {
		t := p.Next(pid)
		if t == nil {
			break
		}
		out = append(out, t)
	}
	p.batch = out
	return out
}

// Live returns the number of placeholder entries across all levels,
// maintained as a counter (the seed implementation walked every list).
func (p *adfPolicy) Live() int { return p.live }

// ReadyCount returns the number of ready entries across all levels (for
// tests and benchmarks).
func (p *adfPolicy) ReadyCount() int { return p.ready }
