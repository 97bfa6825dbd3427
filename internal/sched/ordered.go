package sched

import (
	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// orderedPolicy is the one ready store of fifo, lifo, adf and adf-shard.
// The paper's schedulers differ only in the order of one ready
// structure, so all four keep the ready threads themselves in
// core.Ordered deques sorted in the ready order the native shard store
// uses too (core.Thread.Before: priority desc, then label asc), and
// differ in how a thread gets its label and in how many shards hold
// them:
//
//   - fifo is the original Solaris scheduler and lifo the paper's first
//     modification. Each keys a thread becoming ready with a head label
//     of ±sequence, so the oldest (fifo) or newest (lifo) ready thread of
//     the highest priority is leftmost. A forked child is queued and the
//     parent runs on, so under fifo the graph unfolds breadth-first.
//   - adf is the paper's space-efficient scheduler, a variation of the
//     Narlikar–Blelloch AsyncDF algorithm. A forked child is labeled
//     immediately left of its parent (core.DepaLabel.Fork) and runs at
//     once while the parent is preempted, and a processor always
//     dispatches the leftmost ready thread. A thread's label is its
//     place in the serial depth-first order (DePa), so blocked and
//     running threads need no placeholder entry: a woken or preempted
//     thread resumes at exactly its serial position. A label changes
//     only when its thread forks, which it does only while running, in
//     no deque. The memory quota and dummy threads that complete the
//     S_1 + O(p·D) space bound are Kind.Quota's.
//   - adf-shard is adf over one deque per processor. A processor pushes
//     the threads it readies into its own shard. When that is empty it
//     steals by the rule the native shard store applies too
//     (core.StealVictim). It takes the first shard, round robin after
//     its own, whose leftmost thread has at most K ready threads ahead
//     of it in the ready order, else the shard holding the global
//     leftmost. So the premature-thread population grows by at most K
//     per dispatch slot and the S_1 + c·p·D envelope degrades with K
//     instead of vanishing (contrast ws.go's unbounded steals).
//
// A root thread and a child forked into another priority have no serial
// anchor in their level, so the adf family gives them a fresh head
// label, left of everything already there.
//
// The first three are global: the machine charges the global scheduler
// lock and batches their dispatches when asked. adf-shard is not: the
// machine charges per-shard locks and steal probes (core.ShardedPolicy).
// At one shard adf-shard dispatches exactly as adf.
type orderedPolicy struct {
	name   string
	global bool
	// depa selects the adf family's key rule, the DePa fork labels;
	// otherwise every push keys the thread with a fresh head label.
	depa bool
	// dir orders the head labels: +1 makes the newest rightmost (fifo),
	// -1 leftmost (lifo, and the adf family's head inserts).
	dir    int64
	seq    int64 // head labels handed out so far
	window int   // steal window K (deviation bound), >= 1

	shards []core.Ordered[*core.Thread]
	live   int             // created and not exited
	mins   []core.ShardMin // steal-scan scratch, reused across Next calls

	// Record of how the most recent Next obtained its thread, consumed
	// by the machine through core.ShardedPolicy.TakeSteal.
	stealVictim int
	stealProbes int

	gLive   *metrics.Gauge   // adf.placeholders: the live count the space bound constrains
	cSteal  *metrics.Counter // sched.steal.count
	cReject *metrics.Counter // sched.steal.window_reject
}

// newOrdered builds kind's store: adf-shard with one shard per
// processor, the others with one.
func newOrdered(kind Kind, procs, window int) *orderedPolicy {
	p := &orderedPolicy{
		name:        string(kind),
		global:      kind != ADFShard,
		depa:        kind == ADF || kind == ADFShard,
		dir:         -1,
		window:      window,
		stealVictim: -1,
	}
	if kind == FIFO {
		p.dir = 1
	}
	if p.window <= 0 {
		p.window = procs
	}
	n := 1
	if !p.global {
		n = procs
	}
	p.shards = make([]core.Ordered[*core.Thread], n)
	p.mins = make([]core.ShardMin, 0, n)
	return p
}

// attachMetrics binds the instruments the policy can move: the live
// count for the adf family, the steal counters for adf-shard.
func (p *orderedPolicy) attachMetrics(r *metrics.Registry) {
	if p.depa {
		p.gLive = r.Gauge("adf.placeholders")
	}
	if !p.global {
		p.cSteal = r.Counter("sched.steal.count")
		p.cReject = r.Counter("sched.steal.window_reject")
	}
}

func (p *orderedPolicy) Name() string { return p.name }
func (p *orderedPolicy) Global() bool { return p.global }

// NumShards implements core.ShardedPolicy.
func (p *orderedPolicy) NumShards() int { return len(p.shards) }

// TakeSteal implements core.ShardedPolicy.
func (p *orderedPolicy) TakeSteal() (victim, probes int) {
	victim, probes = p.stealVictim, p.stealProbes
	p.stealVictim, p.stealProbes = -1, 0
	return victim, probes
}

// head hands out the next head label in dir's order.
func (p *orderedPolicy) head() core.DepaLabel {
	l := core.HeadDepaLabel(p.dir * p.seq)
	p.seq++
	return l
}

func (p *orderedPolicy) shardFor(pid int) int {
	if pid < 0 {
		return 0
	}
	return pid % len(p.shards)
}

func (p *orderedPolicy) OnCreate(parent, child *core.Thread) bool {
	p.live++
	p.gLive.Set(int64(p.live))
	switch {
	case !p.depa:
		p.OnReady(child, 0)
		return false
	case parent == nil:
		child.Order = p.head()
		p.shards[0].Push(child)
		return false
	case parent.Priority == child.Priority:
		if !child.Order.Valid() {
			// The runtime labels children on the fork path; policy-level
			// harnesses drive OnCreate directly, so derive the label here.
			child.Order = parent.Order.Fork()
		}
		if child.Order.Compare(parent.Order) >= 0 {
			panic("sched: depa child label not left of its parent")
		}
	default:
		child.Order = p.head()
	}
	// The child runs at once; the parent is preempted and re-enters
	// through OnReady on the forking processor's shard.
	return true
}

func (p *orderedPolicy) OnReady(t *core.Thread, pid int) {
	if !p.depa {
		t.Order = p.head()
	}
	p.shards[p.shardFor(pid)].Push(t)
}

// OnBlock does nothing: a blocking thread was running, so it is in no
// shard, and its label keeps its serial position.
func (p *orderedPolicy) OnBlock(t *core.Thread) {}

func (p *orderedPolicy) OnExit(t *core.Thread) {
	p.live--
	p.gLive.Set(int64(p.live))
}

func (p *orderedPolicy) Next(pid int) *core.Thread {
	own := p.shardFor(pid)
	if p.shards[own].Len() > 0 {
		p.stealVictim, p.stealProbes = -1, 0
		return p.shards[own].Pop()
	}
	mins := p.mins[:0]
	for j := range p.shards {
		if d := &p.shards[j]; d.Len() > 0 {
			m := d.Min()
			mins = append(mins, core.ShardMin{Label: m.Order, Pri: m.Priority, Size: d.Len(), Shard: j})
		}
	}
	victim, probes, rejects := core.StealVictim(mins, len(p.shards), own, p.window)
	if victim < 0 {
		return nil
	}
	p.cReject.Add(int64(rejects))
	p.stealVictim, p.stealProbes = victim, probes
	p.cSteal.Inc()
	return p.shards[victim].Pop()
}
