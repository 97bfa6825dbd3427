package native

import (
	"sync"
	"sync/atomic"

	"spthreads/internal/core"
)

// The native thread lifecycle. A lightweight thread does not own a
// goroutine: at its first dispatch it is launched onto a loop, a parked
// goroutine with its own mailbox, popped from the dispatching
// processor's free list (a fresh loop is started only when that list is
// empty), and when the thread exits the loop parks itself back for the
// next launch. Thread records are recycled the same way, through
// per-worker free-list arenas, once both their holders (the exiting
// thread and the joiner) are done with them.

// loop is a pooled thread-execution vehicle: one goroutine plus one
// resume mailbox, reused across lightweight-thread lifetimes. While a
// thread runs, the loop's mailbox IS the thread's; when the thread
// exits, the loop parks itself back into its last processor's free list
// and waits for the next launch.
type loop struct {
	b      *Backend
	resume chan int // one-slot mailbox: a launch or resume post, or core.PoisonPid

	// t is the thread to run next, written by the launching dispatcher
	// before the post and read by the loop after the matching receive
	// (channel happens-before). Only dispatchers write it: once a loop
	// re-enters a free list its next owner may store here while the loop
	// is still unwinding the previous thread's exit path.
	t *thread

	next *loop // free-list link, owned by the Treiber stack
}

// run is the loop goroutine body. Exactly one receive is outstanding at
// any moment — here, between threads, or inside the current thread's
// park — and at most one post is headed for it: a launch after a pop
// (one per putLoop), or a resume of the thread riding the loop (one per
// park). Hence the one-slot mailbox and the one-post poison protocol.
func (l *loop) run() {
	defer l.b.twg.Done()
	for {
		pid := <-l.resume
		if pid == core.PoisonPid {
			return
		}
		t := l.t
		t.pid = pid
		if l.runOne(t) {
			return // threadAbort: shutdown unwind, no recycle
		}
	}
}

// runOne executes one thread to completion on the loop's goroutine. It
// reports whether the run aborted (poison while the thread was parked
// mid-body).
func (l *loop) runOne(t *thread) (abort bool) {
	defer func() {
		r := recover()
		switch r.(type) {
		case nil, threadExit:
			// normal completion or pthread_exit unwind
		case threadAbort:
			abort = true
			return
		default:
			l.b.recordPanic(t, r)
		}
		// Republish the loop BEFORE the exit bookkeeping: exitThread's
		// joiner wake and successor dispatch let other threads fork, and
		// the loop must already be poppable then or those forks miss the
		// pool and launch fresh goroutines. (The old recycle-after-return
		// order lost the race on ~10% of fine-grained forks, and every
		// missed loop parked forever with a grown stack the GC re-scanned
		// each cycle.) Whoever pops the loop now — this exit path itself,
		// when its successor is an unstarted thread: a loop may adopt its
		// own successor — only posts to the mailbox, which this goroutine
		// takes once it is back at run's receive, so reuse stays
		// serialized. The popper owns l.t from here on, which is why
		// nothing below touches it.
		l.b.pool.loops[t.pid].push(l)
		l.b.exitThread(t)
		l.b.releaseThread(t)
	}()
	t.body.Run(t)
	return false
}

// loopFree is one processor's Treiber stack of parked loops, padded so
// neighboring heads do not share a cache line. Pushes are multi-producer
// (a loop recycles itself from whatever processor last ran its thread);
// pops are single-consumer per head (only the goroutine holding
// processor pid launches from it, and the hold passes from one to the
// next in happens-before order), so the classic ABA hazard cannot bite.
type loopFree struct {
	head atomic.Pointer[loop]
	_    [64 - 8]byte
}

func (f *loopFree) push(l *loop) {
	for {
		h := f.head.Load()
		l.next = h
		if f.head.CompareAndSwap(h, l) {
			return
		}
	}
}

func (f *loopFree) pop() *loop {
	for {
		h := f.head.Load()
		if h == nil {
			return nil
		}
		n := h.next
		if f.head.CompareAndSwap(h, n) {
			h.next = nil
			return h
		}
	}
}

// recFree is one worker's Treiber stack of recycled thread records,
// same discipline as loopFree.
type recFree struct {
	head atomic.Pointer[thread]
	_    [64 - 8]byte
}

func (f *recFree) push(t *thread) {
	for {
		h := f.head.Load()
		t.freeNext = h
		if f.head.CompareAndSwap(h, t) {
			return
		}
	}
}

func (f *recFree) pop() *thread {
	for {
		h := f.head.Load()
		if h == nil {
			return nil
		}
		n := h.freeNext
		if f.head.CompareAndSwap(h, n) {
			h.freeNext = nil
			return h
		}
	}
}

// pool is the lifecycle's reuse state: per-worker loop free lists,
// per-worker thread-record arenas, and the all-loops registry the
// shutdown poison walk uses.
type pool struct {
	b     *Backend
	loops []loopFree
	recs  []recFree

	mu  sync.Mutex // guards all
	all []*loop
}

func newPool(b *Backend, procs int) *pool {
	return &pool{
		b:     b,
		loops: make([]loopFree, procs),
		recs:  make([]recFree, procs),
	}
}

// getLoop returns a loop ready to take a launch post on processor pid,
// reusing a parked one when possible. A fresh loop's goroutine starts
// at its first mailbox receive, so the caller's post is uniform across
// both cases.
func (p *pool) getLoop(pid int) *loop {
	if l := p.loops[pid].pop(); l != nil {
		return l
	}
	l := &loop{
		b:      p.b,
		resume: make(chan int, 1),
	}
	p.mu.Lock()
	p.all = append(p.all, l)
	p.mu.Unlock()
	p.b.twg.Add(1)
	go l.run()
	return l
}

// getThread serves a recycled thread record from worker pid's arena,
// or nil when the arena is empty (the caller allocates fresh). pid < 0
// (the root thread, created before any worker exists) always allocates.
func (p *pool) getThread(pid int) *thread {
	if pid < 0 {
		return nil
	}
	return p.recs[pid].pop()
}

// releaseThread drops one lifecycle reference on t and recycles the
// record into its last worker's arena when both holders are done. A
// record has 2 references when joinable (the exiting thread and the
// future joiner) and 1 when detached; each holder releases only after
// its last read of the record (trace emits for the exiter, the
// exitedSpan/id reads for the joiner), so a recycled record can never
// be observed through a stale pointer. Never-joined undetached records
// keep their joiner reference forever and simply leak, exactly like
// unjoined POSIX threads.
func (b *Backend) releaseThread(t *thread) {
	if t.refs.Add(-1) != 0 {
		return
	}
	pid := t.pid
	if pid < 0 || pid >= len(b.pool.recs) {
		return // root or never-dispatched record: do not pool
	}
	t.reset()
	b.pool.recs[pid].push(t)
}

// threadRefs is the initial lifecycle reference count for a record.
func threadRefs(detached bool) int32 {
	if detached {
		return 1
	}
	return 2
}

// reset scrubs a thread record before it re-enters an arena: every
// field except the backend pointer is zeroed, the embedded policy token
// in place with the rest (TLS map, DePa label, mailbox, join state,
// trace identity, shard-heap slot — pool-reuse hygiene is by
// construction, not by field-by-field cleanup). newThread restores
// tok.Owner with the new identity.
func (t *thread) reset() {
	*t = thread{b: t.b}
}
