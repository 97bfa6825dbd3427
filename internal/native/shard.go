package native

import (
	"sync"
	"sync/atomic"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
)

// shardStore is the native backend's one ready store: one small
// lock-protected core.Ordered deque per shard, in the ready order the sim
// store uses too (core.Thread.Before: priority desc, DePa label asc). The
// ADF family keys a thread by its fork-path label and runs one shard per
// worker. FIFO and LIFO run on one shard, the paper's global queue or
// stack, keyed by a sequence order instead (key). A thread giving its
// processor up takes its successor from its own shard; a worker with no
// successor pops its own shard, else steals within the deviation
// window.
//
// Lock protocol: a push or pop takes exactly one shard lock, and a shard
// lock is never held together with b.mu, in either order. A thread is
// pushed once its readier's writes are done (so a thief marks it
// running only after them), and the popper owns a popped thread and
// marks it running with no lock held. No two locks ever nest, so the
// protocol is deadlock-free by construction.
//
// Each shard publishes its leftmost label, tagged with its priority and
// the shard's size, in a core.DepaCell. A thief snapshots the cells
// lock-free, picks its victim by the sim policy's rule
// (core.StealVictim), and locks only the victim it accepts. The
// snapshot is racy — a cell can be stale by the time the victim is
// locked — so the window check is approximate on this backend (the sim
// policy, serialized, is exact); a pop that finds the victim drained
// simply rescans. A store of one shard has no thief and publishes
// nothing.
//
// Lost-wakeup protocol (Dekker): b.idleA mirrors the idle-worker count
// under b.mu into an atomic. A pusher stores its shard's new size (a
// wake, its worker's runnext slot) and then reads idleA, signaling
// b.cond if any worker sleeps; a worker going idle increments idleA
// under b.mu and then re-reads every shard's size and every slot
// (anyReady) before waiting. Both sides use sequentially consistent
// atomics, so at least one of them observes the other and a placement
// concurrent with going-idle can never strand the work.
type shardStore struct {
	b       *Backend
	shards  []shard
	window  int
	publish bool // more than one shard: thieves read the cells

	// dir selects a sequence order: +1 FIFO, -1 LIFO, 0 the DePa fork
	// order of the ADF family.
	dir int64

	// mins is each worker's steal-scan scratch, one entry per shard,
	// allocated at the worker's first scan.
	mins [][]core.ShardMin

	cSteal  *metrics.Counter // sched.steal.count
	cReject *metrics.Counter // sched.steal.window_reject

	// seq numbers the sequence keys, on a cache line of its own.
	_   [64]byte
	seq atomic.Int64
	_   [64]byte
}

// shard is one worker's ready deque.
type shard struct {
	mu sync.Mutex
	q  core.Ordered[*thread]

	// pub is the leftmost-label hint, tagged with pubTag; written under
	// mu, read lock-free by thieves.
	pub core.DepaCell

	// size is q.Len(), written under mu and summed lock-free by take and
	// by a worker going idle.
	size atomic.Int64

	// pad keeps hot shards off one another's cache line.
	_ [64]byte
}

// pubTag packs a shard's leftmost priority and its size into a
// DepaCell tag (priorities are below core.NumPriorities <= 256).
func pubTag(pri, size int) uint64 { return uint64(size)<<8 | uint64(pri) }

// newShardStore registers each steal counter only where it can count:
// steals with more than one shard or worker (runnext slots), window
// rejections with more than one shard. Nil handles are detached.
func newShardStore(b *Backend, n, window int, dir int64) *shardStore {
	ss := &shardStore{
		b:       b,
		shards:  make([]shard, n),
		window:  window,
		dir:     dir,
		publish: n > 1,
		mins:    make([][]core.ShardMin, b.procs),
	}
	if n > 1 || b.procs > 1 {
		ss.cSteal = b.registry.Counter("sched.steal.count")
	}
	if n > 1 {
		ss.cReject = b.registry.Counter("sched.steal.window_reject")
	}
	return ss
}

// key gives t, which is becoming ready, its place in a sequence order
// before anything compares or pushes it: a head label whose anchor is
// the next sequence number, negated under LIFO so the newest thread is
// leftmost. A no-op in the DePa order, where forks write the labels. A
// popped thread put back unrun is not re-keyed: it keeps its place.
func (ss *shardStore) key(t *thread) {
	if ss.dir != 0 {
		countRMW()
		t.tok.Order = core.HeadDepaLabel(ss.dir * ss.seq.Add(1))
	}
}

func (ss *shardStore) shardFor(pid int) int {
	if pid < 0 {
		return 0
	}
	return pid % len(ss.shards)
}

// push makes t ready in worker pid's shard. Must be called without b.mu
// held (see the lock protocol above), once the caller has marked t
// ready. Ends with the idle-worker signal, so callers need no cond
// handling of their own.
func (ss *shardStore) push(t *thread, pid int) {
	s := &ss.shards[ss.shardFor(pid)]
	ss.b.stampReady(t)
	ss.b.lockTimed(&s.mu)
	top := s.q.Push(t)
	n := s.q.Len()
	if ss.publish {
		// Republish the label only when t became the leftmost.
		if top {
			s.pub.Store(t.tok.Order, pubTag(t.tok.Priority, n))
		} else {
			s.pub.SetTag(pubTag(s.q.Min().tok.Priority, n))
		}
	}
	s.size.Store(int64(n))
	s.mu.Unlock()
	ss.b.signalIfIdle(pid)
}

// pop removes and returns shard v's leftmost thread, or nil if the shard
// is (or went) empty. With before non-nil it pops only a thread that
// precedes before, which is running and in no shard: the successor of a
// yield, nil when the yielder is itself the leftmost.
func (ss *shardStore) pop(v int, before *thread) *thread {
	s := &ss.shards[v]
	ss.b.lockTimed(&s.mu)
	if s.q.Len() == 0 || before != nil && !s.q.Min().Before(before) {
		s.mu.Unlock()
		return nil
	}
	t := s.q.Pop()
	n := s.q.Len()
	if ss.publish {
		if n == 0 {
			s.pub.Clear()
		} else {
			m := s.q.Min()
			s.pub.Store(m.tok.Order, pubTag(m.tok.Priority, n))
		}
	}
	s.size.Store(int64(n))
	s.mu.Unlock()
	return t
}

// size sums the shards' sizes: the threads in the store, 0 only if
// every shard was empty when read.
func (ss *shardStore) size() (n int64) {
	for i := range ss.shards {
		n += ss.shards[i].size.Load()
	}
	return n
}

// take dispatches for worker pid: pop the own shard, else steal the
// leftmost candidate within the deviation window. Returns nil when no
// work is visible (the sizes summed to 0 during the scan).
func (ss *shardStore) take(pid int) *thread {
	n := len(ss.shards)
	own := ss.shardFor(pid)
	if n == 1 {
		return ss.pop(own, nil)
	}
	if ss.mins[pid] == nil {
		ss.mins[pid] = make([]core.ShardMin, 0, n)
	}
	for ss.size() > 0 {
		if t := ss.pop(own, nil); t != nil {
			return t
		}
		// Snapshot the published minima (lock-free, possibly stale).
		mins := ss.mins[pid][:0]
		for j := range ss.shards {
			if l, tag := ss.shards[j].pub.Load(); l.Valid() {
				mins = append(mins, core.ShardMin{Label: l, Pri: int(tag & 0xff), Size: int(tag >> 8), Shard: j})
			}
		}
		victim, _, rejects := core.StealVictim(mins, n, own, ss.window)
		if victim < 0 {
			continue // every hint empty: re-check the sizes and rescan
		}
		if rejects > 0 {
			ss.cReject.Add(int64(rejects))
		}
		if t := ss.pop(victim, nil); t != nil {
			ss.cSteal.Inc()
			ss.b.tracer.record(pid, t.ID(), trace.KindSteal, int64(victim))
			return t
		}
		// The victim drained between snapshot and lock; rescan.
	}
	return nil
}

// signalIfIdle wakes one idle worker if any is (or is about to be)
// waiting — the placer half of the Dekker protocol, after a push or a
// runnext placement by pid.
func (b *Backend) signalIfIdle(pid int) {
	slotStep(pid)
	if b.idleA.Load() == 0 {
		return
	}
	b.cond.L.Lock() // b.mu
	b.cond.Signal()
	b.cond.L.Unlock()
}

// Before is the ready order on threads. A thread's label changes only
// when it forks or is keyed on becoming ready: it is stable while the
// thread waits in a shard or as a candidate, and a running yielder
// compares only its own.
func (a *thread) Before(b *thread) bool { return a.tok.Before(&b.tok) }
