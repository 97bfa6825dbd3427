package sched

import (
	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// shardPolicy is the ADF scheduler over per-processor ready shards with
// bounded-deviation work stealing ("adf-shard"). The global ADF policy
// funnels every ready-store operation through one charged scheduler
// lock; the DePa labels make left-of a local compare with no shared
// structure, so the ready store itself can be split: each processor owns
// a core.Ordered deque in the ready order (core.ReadyLess: priority
// desc, label asc) and pushes the threads it readies into its own.
//
// A processor whose shard is empty steals, by the rule the native shard
// store applies too (core.StealVictim): it examines victims round robin
// starting after itself and accepts the first whose leftmost ready
// thread deviates from the global depth-first order by at most the
// steal window K, else falls back to the shard holding the global
// leftmost entry (rank 0, always within any window), which keeps Next
// complete. Because at most K ready threads can precede any dispatched
// thread, the premature-thread population a depth-first schedule bounds
// grows by at most K per dispatch slot and the paper's S1 + c·p·D
// envelope degrades gracefully with K instead of vanishing (contrast
// ws.go, whose steals are unbounded-deviation). At p=1 the single shard
// holds every ready entry, so dispatch is bit-identical to adf.
type shardPolicy struct {
	placeholders // one label anchor and live count for all shards
	name         string
	window       int // steal window K (deviation bound), >= 1

	shards []core.Ordered[*readyEntry]
	ready  int
	mins   []core.ShardMin // steal-scan scratch, reused across Next calls

	// Record of how the most recent Next obtained its thread, consumed
	// by the machine through core.ShardedPolicy.TakeSteal.
	stealVictim int
	stealProbes int

	steals  int64
	rejects int64

	gLive   *metrics.Gauge   // adf.placeholders
	cSteal  *metrics.Counter // sched.steal.count
	cReject *metrics.Counter // sched.steal.window_reject
}

func newShard(procs, window int) *shardPolicy {
	if procs <= 0 {
		procs = 1
	}
	if window <= 0 {
		window = procs
	}
	return &shardPolicy{
		name:        "adf-shard",
		window:      window,
		shards:      make([]core.Ordered[*readyEntry], procs),
		mins:        make([]core.ShardMin, 0, procs),
		stealVictim: -1,
	}
}

// attachMetrics binds the policy's instruments to a registry. The gauge
// reuses the adf name (this is the same placeholder discipline); the
// counters expose steal behaviour.
func (p *shardPolicy) attachMetrics(r *metrics.Registry) {
	p.gLive = r.Gauge("adf.placeholders")
	p.cSteal = r.Counter("sched.steal.count")
	p.cReject = r.Counter("sched.steal.window_reject")
}

// note publishes the live count after it changes.
func (p *shardPolicy) note() { p.gLive.Set(int64(p.nlive)) }

func (p *shardPolicy) Name() string { return p.name }

// Global reports false: the machine charges per-shard critical sections
// instead of the global scheduler lock.
func (p *shardPolicy) Global() bool { return false }

// NumShards implements core.ShardedPolicy.
func (p *shardPolicy) NumShards() int { return len(p.shards) }

// TakeSteal implements core.ShardedPolicy.
func (p *shardPolicy) TakeSteal() (victim, probes int) {
	victim, probes = p.stealVictim, p.stealProbes
	p.stealVictim, p.stealProbes = -1, 0
	return victim, probes
}

// Steals returns the number of cross-shard dispatches so far.
func (p *shardPolicy) Steals() int64 { return p.steals }

// WindowRejects returns the number of steal probes rejected because the
// candidate's deviation bound exceeded the window.
func (p *shardPolicy) WindowRejects() int64 { return p.rejects }

// Live returns the number of placeholder entries.
func (p *shardPolicy) Live() int { return p.nlive }

// ReadyCount returns the number of ready entries across all shards.
func (p *shardPolicy) ReadyCount() int { return p.ready }

func (p *shardPolicy) shardFor(pid int) int {
	if pid < 0 {
		return 0
	}
	return pid % len(p.shards)
}

func (p *shardPolicy) pushReady(t *core.Thread, shard int) {
	e := t.SchedState.(*readyEntry)
	if e.ready {
		return
	}
	e.ready = true
	p.shards[shard].Push(e)
	p.ready++
}

func (p *shardPolicy) OnCreate(parent, child *core.Thread) bool {
	if parent == nil {
		// Root thread: sole entry, runnable in shard 0.
		p.insertHead(child)
		p.pushReady(child, 0)
		p.note()
		return false
	}
	if parent.SchedState != nil && parent.Priority == child.Priority {
		// Immediately left of the parent in the serial depth-first order.
		p.insertBefore(child, parent)
	} else {
		// Cross-priority forks have no serial anchor; leftmost is the
		// conservative choice (cf. adfPolicy.OnCreate).
		p.insertHead(child)
	}
	p.note()
	// Child runs immediately; the parent is preempted and re-enters
	// through OnReady on the forking processor's shard.
	return true
}

func (p *shardPolicy) OnReady(t *core.Thread, pid int) { p.pushReady(t, p.shardFor(pid)) }

// OnBlock does nothing: a blocking thread was running, so it is in no
// shard (cf. adfPolicy.OnBlock).
func (p *shardPolicy) OnBlock(t *core.Thread) {}

func (p *shardPolicy) OnExit(t *core.Thread) {
	p.remove(t)
	t.SchedState = nil
	p.note()
}

// take pops shard v's leftmost ready entry.
func (p *shardPolicy) take(v int) *core.Thread {
	e := p.shards[v].Pop()
	e.ready = false
	p.ready--
	return e.t
}

func (p *shardPolicy) Next(pid int) *core.Thread {
	if p.ready == 0 {
		return nil
	}
	s := p.shardFor(pid)
	if p.shards[s].Len() > 0 {
		p.stealVictim, p.stealProbes = -1, 0
		return p.take(s)
	}
	mins := p.mins[:0]
	for j := range p.shards {
		if d := &p.shards[j]; d.Len() > 0 {
			m := d.Min()
			mins = append(mins, core.ShardMin{Label: m.label, Pri: int(m.pri), Size: d.Len(), Shard: j})
		}
	}
	victim, probes, rejects := core.StealVictim(mins, len(p.shards), s, p.window)
	p.rejects += int64(rejects)
	p.cReject.Add(int64(rejects))
	p.stealVictim, p.stealProbes = victim, probes
	p.steals++
	p.cSteal.Inc()
	return p.take(victim)
}
