package native

import (
	"sync"
	"sync/atomic"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
)

// shardStore is the native backend's ready store for a
// core.ShardedPolicy: one small lock-protected heap per worker, ordered
// by (priority desc, DePa label asc), replacing the policy structure
// guarded by the global scheduler mutex. With the store sharded, b.mu
// shrinks to lifecycle bookkeeping (admit/exit/join/idle workers) and
// ready-store traffic — the dominant critical section at high worker
// counts — spreads across the shards.
//
// Lock protocol: a push or pop takes exactly one shard lock, and a shard
// lock is never acquired while holding b.mu (pushes happen after the
// b.mu section of the operation that made the thread ready), nor is b.mu
// acquired under a shard lock by the store itself; dispatchers take the
// shard lock, pop, release, and only then take b.mu to mark the thread
// running. No two locks ever nest in either order, so the protocol is
// deadlock-free by construction — strictly stronger than the two-locks-
// in-address-order discipline a cross-shard transfer would need.
//
// Each shard publishes its leftmost key through an atomic pointer (the
// leftmost-label hint) plus an atomic size. A thief snapshots the hints
// lock-free, computes the bounded-deviation test exactly as the sim
// policy does (the deviation bound of a candidate is the total ready
// count of shards whose published leftmost precedes it), and only locks
// the victim it accepts. The snapshot is racy — a hint can be stale by
// the time the victim is locked — so the window check is approximate on
// this backend (the sim policy, serialized, is exact); a pop that finds
// the victim drained simply rescans.
//
// Lost-wakeup protocol (Dekker): b.idleA mirrors the idle-worker count
// under b.mu into an atomic. A pusher increments total and then reads
// idleA, signaling b.cond if any worker sleeps; a worker going idle
// increments idleA under b.mu and then re-reads total before waiting.
// Both sides use sequentially consistent atomics, so at least one of
// them observes the other and a push concurrent with going-idle can
// never strand the work.
type shardStore struct {
	b      *Backend
	shards []shard
	window int
	strict bool

	// total counts threads across all shards (the sharded counterpart of
	// b.ready, readable without any lock).
	total atomic.Int64

	steals  atomic.Int64
	rejects atomic.Int64
	cSteal  *metrics.Counter // sched.steal.count
	cReject *metrics.Counter // sched.steal.window_reject
}

// shard is one worker's ready heap.
type shard struct {
	mu sync.Mutex
	h  []*thread // indexed min-heap on (heapPri desc, heapLabel asc)

	// pub is the leftmost-key hint: the heap minimum's key, nil when the
	// shard is empty. Written under mu, read lock-free by thieves.
	pub atomic.Pointer[shardPub]
	// size mirrors len(h) for lock-free deviation bounds.
	size atomic.Int64

	// pad keeps hot shards off one another's cache line.
	_ [64]byte
}

// shardPub is a published heap-minimum key.
type shardPub struct {
	pri   int
	label core.DepaLabel
}

func newShardStore(b *Backend, n, window int, strict bool) *shardStore {
	return &shardStore{
		b:       b,
		shards:  make([]shard, n),
		window:  window,
		strict:  strict,
		cSteal:  b.registry.Counter("sched.steal.count"),
		cReject: b.registry.Counter("sched.steal.window_reject"),
	}
}

func (ss *shardStore) shardFor(pid int) int {
	if pid < 0 {
		return 0
	}
	return pid % len(ss.shards)
}

// lockShard acquires one shard lock, feeding waits into the same
// sched.lock.wait histogram as b.mu so native lock-wait totals cover the
// whole scheduler locking surface in both modes.
func (ss *shardStore) lockShard(s *shard) {
	if ss.b.lockWait == nil {
		s.mu.Lock()
		return
	}
	if s.mu.TryLock() {
		ss.b.lockWait.Observe(0)
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	ss.b.lockWait.Observe(time.Since(t0).Nanoseconds())
}

// push makes t ready in worker pid's shard. Must be called without b.mu
// held (see the lock protocol above); the caller has already written
// t.state under b.mu. Ends with the idle-worker signal, so callers need
// no cond handling of their own.
func (ss *shardStore) push(t *thread, pid int) {
	s := &ss.shards[ss.shardFor(pid)]
	if ss.b.dispatchWait != nil {
		t.readyAt = ss.b.sinceStart()
	}
	ss.lockShard(s)
	// Key snapshot: the thread is parked, so its label is stable here
	// and stays stable while the entry sits in the heap.
	t.heapLabel = t.tok.Order
	t.heapPri = t.tok.Priority
	s.heapPush(t)
	s.size.Store(int64(len(s.h)))
	s.publishLocked()
	s.mu.Unlock()
	total := ss.total.Add(1)
	ss.b.readyGauge.Set(total)
	ss.b.signalIfIdle()
}

// pop removes and returns shard v's leftmost thread, or nil if the shard
// is (or went) empty.
func (ss *shardStore) pop(v int) *thread {
	s := &ss.shards[v]
	ss.lockShard(s)
	if len(s.h) == 0 {
		s.mu.Unlock()
		return nil
	}
	t := s.heapRemove(0)
	s.size.Store(int64(len(s.h)))
	s.publishLocked()
	s.mu.Unlock()
	total := ss.total.Add(-1)
	ss.b.readyGauge.Set(total)
	return t
}

// take dispatches for worker pid: pop the own shard, else steal the
// leftmost candidate within the deviation window. Returns nil when no
// work is visible (total reached 0 during the scan).
func (ss *shardStore) take(pid int) *thread {
	n := len(ss.shards)
	own := ss.shardFor(pid)
	pubs := make([]*shardPub, n)
	sizes := make([]int64, n)
	for ss.total.Load() > 0 {
		if !ss.strict {
			if t := ss.pop(own); t != nil {
				return t
			}
		}
		// Snapshot the published minima (lock-free, possibly stale).
		min := -1
		for j := 0; j < n; j++ {
			pubs[j] = ss.shards[j].pub.Load()
			sizes[j] = ss.shards[j].size.Load()
			if pubs[j] != nil && (min < 0 || pubLess(pubs[j], pubs[min])) {
				min = j
			}
		}
		if min < 0 {
			continue // every hint empty: re-check total and rescan
		}
		if ss.strict {
			// Sequential-steal mode: always the globally leftmost hint.
			if t := ss.pop(min); t != nil {
				return t
			}
			continue
		}
		victim := -1
		for k := 1; k < n; k++ {
			v := (own + k) % n
			if pubs[v] == nil {
				continue
			}
			// Deviation bound: every ready thread in a shard whose
			// leftmost precedes the candidate might precede it too.
			bound := int64(0)
			for j := 0; j < n; j++ {
				if j != v && pubs[j] != nil && pubLess(pubs[j], pubs[v]) {
					bound += sizes[j]
				}
			}
			if bound <= int64(ss.window) {
				victim = v
				break
			}
			ss.rejects.Add(1)
			ss.cReject.Inc()
		}
		if victim < 0 {
			victim = min // rank 0: within any window
		}
		if t := ss.pop(victim); t != nil {
			ss.steals.Add(1)
			ss.cSteal.Inc()
			ss.b.tracer.record(pid, t.ID(), trace.KindSteal, int64(victim))
			return t
		}
		// The victim drained between snapshot and lock; rescan.
	}
	return nil
}

// signalIfIdle wakes one idle worker if any is (or is about to be)
// waiting — the pusher half of the Dekker protocol.
func (b *Backend) signalIfIdle() {
	if b.idleA.Load() == 0 {
		return
	}
	b.mu.Lock()
	b.cond.Signal()
	b.mu.Unlock()
}

// pubLess orders published keys like the heap: priority descending, then
// label ascending.
func pubLess(a, b *shardPub) bool {
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	return a.label.Compare(b.label) < 0
}

// Heap plumbing, under the shard lock. heapIdx tracks each thread's slot
// (unused for removal today — ready threads leave only via pop — but
// kept exact so indexed deletes stay possible).

func threadLess(a, b *thread) bool {
	if a.heapPri != b.heapPri {
		return a.heapPri > b.heapPri
	}
	return a.heapLabel.Compare(b.heapLabel) < 0
}

// publishLocked refreshes the leftmost-key hint from the heap minimum.
func (s *shard) publishLocked() {
	if len(s.h) == 0 {
		s.pub.Store(nil)
		return
	}
	t := s.h[0]
	s.pub.Store(&shardPub{pri: t.heapPri, label: t.heapLabel})
}

func (s *shard) swap(i, j int) {
	s.h[i], s.h[j] = s.h[j], s.h[i]
	s.h[i].heapIdx = i
	s.h[j].heapIdx = j
}

func (s *shard) heapPush(t *thread) {
	t.heapIdx = len(s.h)
	s.h = append(s.h, t)
	s.siftUp(t.heapIdx)
}

func (s *shard) heapRemove(i int) *thread {
	t := s.h[i]
	last := len(s.h) - 1
	s.swap(i, last)
	s.h[last] = nil
	s.h = s.h[:last]
	t.heapIdx = -1
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	return t
}

func (s *shard) siftUp(i int) {
	for i > 0 {
		up := (i - 1) / 2
		if !threadLess(s.h[i], s.h[up]) {
			return
		}
		s.swap(i, up)
		i = up
	}
}

func (s *shard) siftDown(i int) {
	n := len(s.h)
	for {
		m := i
		if l := 2*i + 1; l < n && threadLess(s.h[l], s.h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && threadLess(s.h[r], s.h[m]) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}
