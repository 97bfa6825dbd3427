package sched

import (
	"sort"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// shardPolicy is the ADF scheduler over per-processor ready shards with
// bounded-deviation work stealing ("adf-shard"). The global ADF policy
// funnels every ready-store operation through one charged scheduler
// lock; the DePa labels make left-of a local compare with no shared
// structure, so the ready store itself can be split: each processor owns
// an indexed min-heap ordered by (priority desc, label asc) and pushes
// the threads it readies into its own heap.
//
// A processor whose shard is empty steals. It examines victims in a
// deterministic round-robin order starting after itself and accepts the
// first victim whose leftmost ready thread deviates from the global
// depth-first order by at most the steal window K: the deviation bound
// of a candidate is the total number of ready threads in shards whose
// leftmost entry precedes the candidate — an over-estimate of the
// candidate's true rank, so the accepted rank is always <= K. If every
// candidate exceeds the window the thief falls back to the shard holding
// the global leftmost entry (rank 0, always within any window), which
// keeps Next complete. Because at most K ready threads can precede any
// dispatched thread, the premature-thread population a depth-first
// schedule bounds grows by at most K per dispatch slot and the paper's
// S1 + c·p·D envelope degrades gracefully with K instead of vanishing
// (contrast ws.go, whose steals are unbounded-deviation).
//
// In strict mode the policy reports Global() == true and every Next
// takes the globally leftmost ready entry: the machine then applies the
// exact global-lock charging of the adf oracle and the schedule is
// bit-identical to adf at any p — the sequential-steal deterministic
// test mode the differential suite pins. Non-strict shards are also
// bit-identical to adf at p=1 (a single shard holds every ready entry).
type shardPolicy struct {
	name    string
	quota   int64
	dummies bool
	window  int  // steal window K (deviation bound), >= 1
	strict  bool // sequential-steal mode: global leftmost every time

	shards []shardHeap
	anchor int64 // next head-insert anchor, decreasing (cf. adfDepa)
	live   int
	ready  int

	// Record of how the most recent Next obtained its thread, consumed
	// by the machine through core.ShardedPolicy.TakeSteal.
	stealVictim int
	stealProbes int

	steals  int64
	rejects int64

	// Steal-scan scratch (reused across Next calls to avoid churn).
	scratch []int // non-empty shard indices, sorted by leftmost key
	prefix  []int // prefix[i] = ready entries in scratch[:i]
	posOf   []int // shard index -> position in scratch

	gLive   *metrics.Gauge   // adf.placeholders
	gReady  *metrics.Gauge   // adf.ready
	cSteal  *metrics.Counter // sched.steal.count
	cReject *metrics.Counter // sched.steal.window_reject
}

// shardEntry is a thread's placeholder. hi is the entry's index in its
// home shard's heap, -1 while not ready; home identifies that shard.
type shardEntry struct {
	t     *core.Thread
	label core.DepaLabel
	pri   int
	hi    int
	home  int
}

// shardHeap is one processor's ready heap, an indexed binary min-heap on
// (priority desc, label asc) — the composite key replicates the global
// policy's highest-priority-then-leftmost scan in a single pop.
type shardHeap struct {
	h []*shardEntry
}

func newShard(procs, window int, strict bool, quotaK int64, disableDummies bool) *shardPolicy {
	if procs <= 0 {
		procs = 1
	}
	if window <= 0 {
		window = procs
	}
	return &shardPolicy{
		name:        "adf-shard",
		quota:       quotaK,
		dummies:     !disableDummies,
		window:      window,
		strict:      strict,
		shards:      make([]shardHeap, procs),
		scratch:     make([]int, 0, procs),
		prefix:      make([]int, procs+1),
		posOf:       make([]int, procs),
		stealVictim: -1,
	}
}

// attachMetrics binds the policy's instruments to a registry. The gauges
// reuse the adf names (this is the same placeholder discipline); the
// counters expose steal behaviour.
func (p *shardPolicy) attachMetrics(r *metrics.Registry) {
	p.gLive = r.Gauge("adf.placeholders")
	p.gReady = r.Gauge("adf.ready")
	p.cSteal = r.Counter("sched.steal.count")
	p.cReject = r.Counter("sched.steal.window_reject")
}

func (p *shardPolicy) note() {
	p.gLive.Set(int64(p.live))
	p.gReady.Set(int64(p.ready))
}

func (p *shardPolicy) Name() string { return p.name }

// Global reports true only in strict mode, where the machine must apply
// the oracle's global-lock charging; the sharded fast path reports false
// and the machine charges per-shard critical sections instead.
func (p *shardPolicy) Global() bool { return p.strict }

func (p *shardPolicy) Quota() int64 { return p.quota }

func (p *shardPolicy) AllocDummies(m int64) int {
	if !p.dummies || p.quota <= 0 || m <= p.quota {
		return 0
	}
	return int((m + p.quota - 1) / p.quota)
}

// NumShards implements core.ShardedPolicy.
func (p *shardPolicy) NumShards() int { return len(p.shards) }

// TakeSteal implements core.ShardedPolicy.
func (p *shardPolicy) TakeSteal() (victim, probes int) {
	victim, probes = p.stealVictim, p.stealProbes
	p.stealVictim, p.stealProbes = -1, 0
	return victim, probes
}

// StealWindow implements core.ShardedPolicy.
func (p *shardPolicy) StealWindow() int { return p.window }

// Steals returns the number of cross-shard dispatches so far.
func (p *shardPolicy) Steals() int64 { return p.steals }

// WindowRejects returns the number of steal probes rejected because the
// candidate's deviation bound exceeded the window.
func (p *shardPolicy) WindowRejects() int64 { return p.rejects }

// Live returns the number of placeholder entries.
func (p *shardPolicy) Live() int { return p.live }

// ReadyCount returns the number of ready entries across all shards.
func (p *shardPolicy) ReadyCount() int { return p.ready }

func (p *shardPolicy) shardFor(pid int) int {
	n := len(p.shards)
	if pid < 0 {
		return 0
	}
	return pid % n
}

// add creates a placeholder for t with the given label snapshot (cf.
// adfDepa.add).
func (p *shardPolicy) add(t *core.Thread, label core.DepaLabel) {
	t.SchedState = &shardEntry{t: t, label: label, pri: t.Priority, hi: -1, home: -1}
	p.live++
}

func (p *shardPolicy) insertHead(t *core.Thread) {
	t.Order = core.HeadDepaLabel(p.anchor)
	p.anchor--
	p.add(t, t.Order)
}

func (p *shardPolicy) insertBefore(child, parent *core.Thread) {
	pe := parent.SchedState.(*shardEntry)
	if !child.Order.Valid() {
		// The runtime labels children on the fork path; policy-level
		// harnesses drive OnCreate directly, so derive the label here.
		child.Order = parent.Order.Fork()
	}
	if child.Order.Compare(pe.label) >= 0 {
		panic("sched: shard child label not left of parent placeholder")
	}
	p.add(child, child.Order)
}

func (p *shardPolicy) pushReady(e *shardEntry, shard int) {
	e.home = shard
	p.shards[shard].push(e)
	p.ready++
}

func (p *shardPolicy) OnCreate(parent, child *core.Thread) bool {
	if parent == nil {
		// Root thread: sole entry, runnable in shard 0.
		p.insertHead(child)
		p.pushReady(child.SchedState.(*shardEntry), 0)
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

func (p *shardPolicy) OnReady(t *core.Thread, pid int) {
	e := t.SchedState.(*shardEntry)
	if e.hi >= 0 {
		return
	}
	p.pushReady(e, p.shardFor(pid))
	p.note()
}

func (p *shardPolicy) OnBlock(t *core.Thread) {
	e := t.SchedState.(*shardEntry)
	if e.hi < 0 {
		return
	}
	p.shards[e.home].remove(e.hi)
	p.ready--
	p.note()
}

func (p *shardPolicy) OnExit(t *core.Thread) {
	e := t.SchedState.(*shardEntry)
	if e.hi >= 0 {
		p.shards[e.home].remove(e.hi)
		p.ready--
	}
	t.SchedState = nil
	p.live--
	p.note()
}

// take pops shard v's leftmost ready entry.
func (p *shardPolicy) take(v int) *core.Thread {
	e := p.shards[v].remove(0)
	p.ready--
	p.note()
	return e.t
}

// globalMinShard returns the shard holding the globally leftmost ready
// entry (highest priority, then leftmost label). ready must be > 0.
func (p *shardPolicy) globalMinShard() int {
	best := -1
	for j := range p.shards {
		if len(p.shards[j].h) == 0 {
			continue
		}
		if best < 0 {
			best = j
			continue
		}
		if entryLess(p.shards[j].h[0], p.shards[best].h[0]) {
			best = j
		}
	}
	return best
}

func (p *shardPolicy) Next(pid int) *core.Thread {
	if p.ready == 0 {
		return nil
	}
	if p.strict {
		// Sequential-steal mode: globally leftmost, exactly like adf.
		return p.take(p.globalMinShard())
	}
	s := p.shardFor(pid)
	if len(p.shards[s].h) > 0 {
		p.stealVictim, p.stealProbes = -1, 0
		return p.take(s)
	}

	// Steal scan. Snapshot the non-empty shards sorted by their leftmost
	// key; the deviation bound of shard v's candidate is then the prefix
	// sum of ready counts in shards sorted before it (every entry in a
	// shard whose leftmost precedes the candidate might precede it too —
	// a sound over-estimate of the candidate's true rank).
	n := len(p.shards)
	p.scratch = p.scratch[:0]
	for j := 0; j < n; j++ {
		if len(p.shards[j].h) > 0 {
			p.scratch = append(p.scratch, j)
		}
	}
	sort.Slice(p.scratch, func(a, b int) bool {
		return entryLess(p.shards[p.scratch[a]].h[0], p.shards[p.scratch[b]].h[0])
	})
	sum := 0
	for i, j := range p.scratch {
		p.prefix[i] = sum
		p.posOf[j] = i
		sum += len(p.shards[j].h)
	}

	probes := 0
	victim := -1
	for k := 1; k < n; k++ {
		v := (s + k) % n
		if len(p.shards[v].h) == 0 {
			continue
		}
		probes++
		if p.prefix[p.posOf[v]] <= p.window {
			victim = v
			break
		}
		p.rejects++
		p.cReject.Inc()
	}
	if victim < 0 {
		// Unreachable when own shard is empty (the global-min shard has
		// bound 0 and is always visited), kept for completeness.
		victim = p.scratch[0]
	}
	p.stealVictim, p.stealProbes = victim, probes
	p.steals++
	p.cSteal.Inc()
	return p.take(victim)
}

// entryLess is the composite dispatch key: higher priority first, then
// leftmost (smallest) label. Labels are unique per thread, so the key is
// a total order.
func entryLess(a, b *shardEntry) bool {
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	return a.label.Compare(b.label) < 0
}

// Heap plumbing (cf. adfDepa): indexed binary min-heap so blocking an
// arbitrary ready entry is an indexed delete.

func (h *shardHeap) less(i, j int) bool {
	return entryLess(h.h[i], h.h[j])
}

func (h *shardHeap) swap(i, j int) {
	h.h[i], h.h[j] = h.h[j], h.h[i]
	h.h[i].hi = i
	h.h[j].hi = j
}

func (h *shardHeap) push(e *shardEntry) {
	e.hi = len(h.h)
	h.h = append(h.h, e)
	h.siftUp(e.hi)
}

func (h *shardHeap) remove(i int) *shardEntry {
	e := h.h[i]
	last := len(h.h) - 1
	h.swap(i, last)
	h.h[last] = nil
	h.h = h.h[:last]
	e.hi = -1
	e.home = -1
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
	return e
}

func (h *shardHeap) siftUp(i int) {
	for i > 0 {
		up := (i - 1) / 2
		if !h.less(i, up) {
			return
		}
		h.swap(i, up)
		i = up
	}
}

func (h *shardHeap) siftDown(i int) {
	n := len(h.h)
	for {
		m := i
		if l := 2*i + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
