package native

import "spthreads/internal/core"

// The native thread lifecycle. A lightweight thread rides a pooled
// core.Carrier from its first dispatch to its exit: an iter.Pull
// coroutine popped from the dispatching processor's free list (a fresh
// one is started only when that list is empty), which the worker puts
// back on its own list once the thread has exited and yielded. Thread
// records are recycled the same way, through per-worker free-list
// arenas, once both their holders (the exiting thread and the joiner)
// are done with them.

// Ride implements core.Rider: t runs its body on carrier c from its
// first dispatch, onto processor pid.
func (t *thread) Ride(c *core.Carrier, pid int) {
	t.carrier = c
	t.pid = pid
	t.body.Run(t)
}

// Finish implements core.Rider: exit bookkeeping on t's own coroutine
// once its body is done (p is a user panic, nil otherwise). It returns
// the successor for t's worker.
func (t *thread) Finish(p any) core.Rider {
	if p != nil {
		t.b.recordPanic(t, p)
	}
	next := t.b.exitThread(t)
	t.b.releaseThread(t)
	return next.rider()
}

// FreeLink implements the core.FreeList element constraint for the
// record arenas.
func (t *thread) FreeLink() **thread { return &t.freeNext }

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
	if pid < 0 || pid >= len(b.recs) {
		return // root or never-dispatched record: do not pool
	}
	t.reset()
	b.recs[pid].Push(t)
}

// reset scrubs a thread record before it re-enters an arena: every
// field except the backend pointer is zeroed, the embedded policy token
// in place with the rest (TLS map, DePa label, carrier, join state,
// trace identity, shard-heap slot — pool-reuse hygiene is by
// construction, not by field-by-field cleanup). newThread restores
// tok.Owner with the new identity.
func (t *thread) reset() {
	*t = thread{b: t.b}
}
