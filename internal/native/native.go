// Package native executes lightweight-thread programs on real
// goroutines — the execution backend the paper's artifact corresponds
// to, as opposed to the deterministic virtual-time simulation in
// internal/core.
//
// Each lightweight thread rides a pooled core.Carrier (lifecycle.go), an
// iter.Pull coroutine, and is parked in it whenever it does not hold a
// processor. There are p processors (Config.Procs, default GOMAXPROCS),
// each a worker goroutine that drives the coroutines one at a time, so
// at most p lightweight threads make progress concurrently — the
// execution model of the paper's library, user-level threads on LWPs.
// As in that user-level library, the thread that stops runs the
// scheduler: giving its processor up (fork, exit, Join, Yield, quota
// preemption, Sleep, every sync-object block) it picks its successor —
// the forked child, or the next ready thread, marked running without a
// lock — and yields it to its worker, which resumes it at once: a
// thread switch is two coroswitches. Only a thread that finds no
// successor sends its worker to the idle / deadlock / run-end protocol
// (next).
//
// One ready store (shard.go): DePa-ordered heaps under their own
// locks, never held together with the scheduler lock b.mu. FIFO and LIFO
// run on one shard keyed by a sequence order, the paper's global queue
// or stack; the ADF family (adf, the default, and adf-shard) runs on one
// shard per worker keyed by fork-path labels. A thread giving its
// processor up pops its successor from its own shard, and only a worker
// with no successor steals, within the deviation window. A wake keeps
// communicating threads on one processor, as Go's runnext slot does: the
// woken thread waits in its waker's worker's slot, runs next there when
// the waker gives up, and goes to an idle worker only after runnextGrace.
// A join meets
// the exit on the target's join word (api.go), and the run-failed flag
// is atomic, so forks, exits, joins, wakes, blocks and running marks
// take no b.mu: it keeps only the idle, deadlock and run-end protocol
// and the timer sleepers. The backend drives no policy object: it is
// given the policy's name, which picks the store's order, the steal
// window and the memory quota (core.Quota), which Malloc applies. WS and
// DFD keep per-processor deques that the store does not model, so they
// are sim-only, as is the simulator's two-level Q_in/Q_out batching.
//
// One record per thread: a lightweight thread is a single thread value
// (thread.go), holding the token the store orders by — a core.Thread:
// id, priority, DePa label. The shards hold the records themselves. The
// shutdown walk needs no registry of live threads: it stops every
// carrier the pool ever started.
//
// Resume invariant: a thread is marked running at most once per park,
// and only the worker that marked it (or, for a successor, the worker
// it was yielded to) resumes it. Another processor can mark a thread
// running before the thread has yielded — after its BlockPrep, or once
// a fork or yield made it ready — so a resume first takes the carrier's
// mutex, which the thread's current worker holds until the yield: the
// resumer blocks, it never spins. The shapes a rendezvous would
// deadlock on stay safe: two threads that pick each other (each worker
// releases one carrier before it takes the next), and a thread that
// picks itself, which keeps its processor and does not switch.
//
// Timing is wall-clock: Charge still accounts the charged cycles into
// thread work/span (so speedup and parallelism remain comparable), but
// Stats.Time is the elapsed wall time converted to virtual cycles at
// the calibrated clock rate. Runs are not deterministic.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Config describes one native run.
type Config struct {
	// Procs is the number of worker goroutines (default GOMAXPROCS).
	Procs int
	// Policy names the ready order (required), and Stats.Policy. fifo
	// and lifo run on one shard in sequence order; the ADF family (adf,
	// adf-shard) on one DePa-ordered heap per worker with
	// bounded-deviation steals. ws and dfd are rejected as sim-only.
	Policy string
	// StealWindow is the ADF family's deviation bound K: a steal is
	// accepted only if at most K ready threads precede the stolen
	// thread. <= 0 selects the default, Procs.
	StealWindow int
	// Quota is the memory discipline Malloc applies (zero: none).
	Quota core.Quota
	// DefaultStack is the default simulated stack size charged per
	// thread (default core.DefaultStackSize).
	DefaultStack int64
	// Metrics, when non-nil, receives the run's instrument values.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives the run's scheduler/memory events.
	// Workers record into per-worker lock-free rings (wall-clock-ns
	// timestamps); the rings are merged time-sorted into the recorder
	// when the run completes, with the recorder's unit set to wall-ns.
	Tracer *trace.Recorder
}

// Backend is one native run. It is single-shot: build one per Execute.
// The fields down to wg are only read once workers start. Each word the
// workers write sits behind a pad, on a cache line of its own
// (TestHotWordsOwnTheirLines); per-thread counts are worker cells.
type Backend struct {
	procs        int
	policy       string
	quota        core.Quota
	defaultStack int64

	cond     *sync.Cond  // signals idle workers (ready work, run end); locker b.mu
	shards   *shardStore // the ready store
	start    time.Time
	executed bool

	carriers *core.Carriers                   // per-worker carrier free lists
	recs     []core.FreeList[thread, *thread] // per-worker thread-record arenas

	registry *metrics.Registry

	// Native scheduler observability (all nil-safe when detached).
	tracer       *tracer            // nil when no Config.Tracer
	traceRec     *trace.Recorder    // merge target at run end
	lockWait     *metrics.Histogram // wall ns blocked acquiring b.mu or a shard lock
	dispatchWait *metrics.Histogram // wall ns from ready to dispatch
	handoff      *metrics.Histogram // wall ns from a worker's resume to the resumed thread running

	workers []*worker
	wg      sync.WaitGroup // workers

	_ [64]byte
	// mu, the scheduler lock of the idle and run-end protocol, guards the
	// fields up to the next pad; idleA mirrors idle for the shard store.
	mu        sync.Mutex
	idleA     atomic.Int64
	idle      int // workers waiting in cond.Wait
	sleepers  int // threads parked on pending timers
	err       error
	endStatus int64 // trace.RunEnd* code

	_ [64]byte
	// done is the run-over flag every running mark checks, set under b.mu
	// with a broadcast so that an idle worker cannot miss it.
	done   atomic.Bool
	_      [64]byte
	nextID atomic.Int64 // thread ids, and so the count of threads created
	_      [64]byte
	total  atomic.Int64 // live heap plus stack bytes (mem.go)
	_      [64]byte
}

// worker is one processor's local state, written only by code running
// on that processor, except runnext, which an idle worker may claim. The
// pads keep it off every other word's cache line, runnext included. Its
// counts are cells summed at stats time; a cell can be negative (a
// thread forked here and exited elsewhere), only the sum is a count.
type worker struct {
	_          [64]byte
	runnext    atomic.Pointer[thread] // the thread woken here last (readyThread)
	_          [56]byte
	stats      core.ProcStats
	dispatches *metrics.Counter // per-worker dispatch count (nil-safe)

	// wakeups counts the threads the worker took itself (next), rather
	// than as a successor yielded to it.
	wakeups int64
	maxSpan vtime.Duration // longest span of a thread that exited here

	live, peakLive, quotaPreempts, dummies int64 // threads admitted minus exited, its mark, tallies
	foot                                         // footprint cells (mem.go)
	_                                      [64]byte
}

// New builds a native backend from cfg.
func New(cfg Config) (*Backend, error) {
	procs := cfg.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	// The ready store's shape: shard count, steal window and order.
	n, window, dir := 1, 0, int64(0)
	switch cfg.Policy {
	case "adf", "adf-shard":
		n, window = procs, cfg.StealWindow
		if window <= 0 {
			window = procs
		}
	case "fifo":
		dir = 1
	case "lifo":
		dir = -1
	default:
		return nil, fmt.Errorf("native: Policy %q is sim-only: the native ready store orders fifo, lifo and the adf family", cfg.Policy)
	}
	stack := cfg.DefaultStack
	if stack <= 0 {
		stack = core.DefaultStackSize
	}
	reg := cfg.Metrics
	b := &Backend{
		procs:        procs,
		policy:       cfg.Policy,
		quota:        cfg.Quota,
		defaultStack: stack,
		registry:     reg,
		workers:      make([]*worker, procs),
	}
	b.carriers = core.NewCarriers(procs)
	b.recs = make([]core.FreeList[thread, *thread], procs)
	b.cond = sync.NewCond(&b.mu)
	b.tracer = newTracer(cfg.Tracer, procs)
	b.traceRec = cfg.Tracer
	b.lockWait = reg.Histogram("sched.lock.wait")
	b.dispatchWait = reg.Histogram("sched.dispatch.wait")
	b.handoff = reg.Histogram("sched.resume.handoff")
	for i := range b.workers {
		b.workers[i] = &worker{
			dispatches: reg.Counter(fmt.Sprintf("sched.dispatches.w%d", i)),
			foot:       foot{nextAddr: 1<<12 + int64(i)*addrRange},
		}
	}
	b.shards = newShardStore(b, n, window, dir)
	return b, nil
}

// Execute implements core.Backend: it runs main as the root thread on
// b.procs workers and blocks until the run completes.
func (b *Backend) Execute(main func(core.Handle)) (core.Stats, error) {
	if b.executed {
		return core.Stats{}, fmt.Errorf("native: backend already executed")
	}
	b.executed = true
	b.start = time.Now()
	if b.tracer != nil {
		b.tracer.start = b.start
	}

	root := b.newThread(-1, core.Attr{Name: "main"}, core.Func(main))
	root.tok.Order = core.RootDepaLabel()
	b.shards.key(root)
	// No worker runs yet: the root's cells are worker 0's, and it needs
	// no b.mu section.
	b.stackAlloc(b.workers[0], root.stackSize)
	b.tracer.record(-1, root.ID(), trace.KindCreate, 0) // Arg 0: no parent
	b.tracer.record(-1, root.ID(), trace.KindStackAlloc, root.stackSize)
	b.admit(b.workers[0])
	root.state = core.StateReady
	b.shards.push(root, 0)

	b.wg.Add(b.procs)
	for pid := 0; pid < b.procs; pid++ {
		go b.runWorker(pid)
	}
	b.wg.Wait()
	// A worker exits only when the thread it ran yielded, so no coroutine
	// is running: the carriers can be stopped.
	b.carriers.Shutdown()
	// Every worker and thread goroutine has quiesced; only stray timers
	// may still fire, and those record nothing once b.done is set (they
	// check it under b.mu, which orders their writes before the merge).
	b.mu.Lock()
	b.tracer.record(-1, 0, trace.KindRunEnd, b.endStatus)
	b.tracer.finish(b.traceRec)
	b.mu.Unlock()
	return b.stats(), b.err
}

// runWorker is processor pid's driver loop: it runs a thread and then
// the successor each thread yields, falling back to next (which sleeps
// while nothing is ready) when there is none.
func (b *Backend) runWorker(pid int) {
	defer b.wg.Done()
	for t := b.next(pid); t != nil; t = b.run(t, pid) {
	}
}

// run hands processor pid to t, which was marked running on it: a first
// run launches t onto a pooled carrier, a later one
// resumes t's carrier. It returns the next thread for pid: the successor
// t yielded, or else the worker's own pick. Every run follows exactly
// one markRunning, so the KindDispatch record is issued here, with
// markRunning's timestamp; the capture precedes the resume because t
// can then block and be re-marked, or exit and have its record
// recycled.
func (b *Backend) run(t *thread, pid int) *thread {
	b.tracer.recordAt(t.dispatchAt, pid, t.ID(), trace.KindDispatch, 0)
	var r core.Rider
	if t.carrier == nil {
		r = b.carriers.Launch(pid, t, pid)
	} else {
		if b.handoff != nil {
			t.postAt = b.sinceStart()
		}
		r = b.carriers.Resume(pid, t, t.carrier, pid)
	}
	if next, _ := r.(*thread); next != nil {
		return next
	}
	return b.next(pid)
}

// lock acquires the scheduler lock through lockTimed.
func (b *Backend) lock() { b.lockTimed(&b.mu) }

// lockTimed acquires mu — b.mu or a shard lock — recording how long the
// acquisition blocked (wall ns) in sched.lock.wait when a registry is
// attached, so native lock-wait totals cover the whole scheduler locking
// surface. The uncontended fast path observes 0, mirroring the sim's
// lock instruments, so the histogram's count doubles as an acquisition
// count.
func (b *Backend) lockTimed(mu *sync.Mutex) {
	if b.lockWait == nil {
		mu.Lock()
		return
	}
	if mu.TryLock() {
		b.lockWait.Observe(0)
		return
	}
	t0 := time.Now()
	mu.Lock()
	b.lockWait.Observe(time.Since(t0).Nanoseconds())
}

// sinceStart is the run's monotonic clock: wall ns since Execute began.
func (b *Backend) sinceStart() int64 { return time.Since(b.start).Nanoseconds() }

// next blocks until there is a thread for worker pid to run (marked
// running on pid), or the run is over. The take (own pop, else a bounded
// steal, else another worker's runnext slot) needs no b.mu; the idle
// mirror idleA plus the re-check after going idle are the sleeper half
// of the store's Dekker protocol.
func (b *Backend) next(pid int) *thread {
	for {
		// An idle worker's own slot is empty (see the deadlock check).
		if t := b.takeRunnext(pid); t != nil {
			b.shards.push(t, pid)
		}
		t := b.shards.take(pid)
		if t == nil {
			t = b.stealRunnext(pid)
		}
		if t != nil {
			if b.done.Load() {
				return nil // a thread taken after the run failed is never dispatched
			}
			b.markRunning(t, pid)
			b.workers[pid].wakeups++
			return t
		}
		b.lock()
		over := b.idleLocked(pid, b.cond.Wait)
		b.mu.Unlock()
		if over {
			return nil
		}
	}
}

// idleLocked is worker pid's turn at going idle, under b.mu, after a take
// found nothing: it reports whether the run is over, else returns once
// work may have appeared (wait is b.cond.Wait). The last worker to go
// idle, with no timer pending and nothing ready, ends the run: no thread
// runs or can become ready, so the live cells are final and sum to 0 on
// a clean end. A worker woken by the end must re-check done before going
// idle again, or it waits for a worker that has left (TestRunEndModel).
func (b *Backend) idleLocked(pid int, wait func()) (over bool) {
	if b.done.Load() {
		return true
	}
	b.idle++
	b.idleA.Add(1)
	countRMW()
	switch {
	case b.anyReady(pid):
		// Work appeared between the failed take and going idle.
	case b.idle == b.procs && b.sleepers == 0:
		var live int64
		for _, w := range b.workers {
			live += w.live
		}
		var err error
		if live != 0 {
			err = fmt.Errorf("native: deadlock: %d threads live, none runnable", live)
		}
		b.endLocked(err, trace.RunEndDeadlock)
		over = true
	default:
		wait()
	}
	b.idle--
	b.idleA.Add(-1)
	countRMW()
	return over
}

// markRunning assigns t to processor pid, whose worker then runs it. The
// caller owns t (popped, forked, or claimed through a join word or a
// runnext slot) and runs on pid. t.pid is not written here: t adopts the
// pid its resume carries, on its own coroutine.
func (b *Backend) markRunning(t *thread, pid int) {
	w := b.workers[pid]
	t.state = core.StateRunning
	t.quotaLeft = b.quota.K
	w.stats.Dispatches++
	w.dispatches.Inc()
	if b.dispatchWait != nil && t.readyAt != 0 {
		b.dispatchWait.Observe(b.sinceStart() - t.readyAt)
		t.readyAt = 0
	}
	// The KindDispatch ring write is deferred to run; only the timestamp
	// is taken here.
	t.dispatchAt = b.tracer.now()
}

// blockPrep marks t blocked. It must be called from t's own body,
// before t is registered with any waiter list, and must be followed by
// t.blockPark. A running thread has no entry in any shard heap, so
// there is no ready structure to update.
func (b *Backend) blockPrep(t *thread) {
	t.state = core.StateBlocked
	b.tracer.record(t.pid, t.ID(), trace.KindBlock, 0)
}

// readyThread makes a blocked thread runnable again. pid is the waking
// processor. Call only from thread context (a carrier coroutine): the
// deferred wake record relies on the workers' shutdown wait ordering it
// before the run-end merge — timer wakes go through wakeSleeper, which
// records under b.mu instead.
//
// t goes to pid's runnext slot, displacing its occupant to the shard; an
// empty slot signals an idle worker. A wake after a failed run is placed
// but never dispatched, since every running mark checks b.done first.
func (b *Backend) readyThread(t *thread, pid int) {
	// Id snapshot: after the placement, t can be dispatched, run to exit,
	// and have its record recycled before the KindWake emit below.
	at, id := b.tracer.now(), t.ID()
	t.state = core.StateReady
	b.shards.key(t)
	b.stampReady(t)
	slotStep(pid)
	if old := b.workers[pid].runnext.Swap(t); old != nil {
		b.shards.push(old, pid)
	} else {
		b.signalIfIdle(pid)
	}
	b.tracer.recordAt(at, pid, id, trace.KindWake, 0)
}

// runnextGrace is how long a slot's thread waits for its waker to block
// before an idle worker takes it: Go's runqgrab back-off.
const runnextGrace = 3 * time.Microsecond

// runnextStep, when set, gates each slot access and placer's idleA read.
var runnextStep func(pid int)

func slotStep(pid int) {
	if runnextStep != nil {
		runnextStep(pid)
	}
}

// takeRunnext empties worker pid's own slot and returns its occupant.
// An empty slot costs one load and no read-modify-write.
func (b *Backend) takeRunnext(pid int) *thread {
	slot := &b.workers[pid].runnext
	slotStep(pid)
	if slot.Load() == nil {
		return nil
	}
	slotStep(pid)
	return slot.Swap(nil)
}

// stealRunnext claims, by CAS, another worker's slot occupant that is
// still there after runnextGrace: a steal from the victim's shard.
func (b *Backend) stealRunnext(pid int) *thread {
	for i := 1; i < b.procs; i++ {
		v := (pid + i) % b.procs
		slot := &b.workers[v].runnext
		slotStep(pid)
		t := slot.Load()
		if t == nil {
			continue
		}
		for t0 := time.Now(); time.Since(t0) < runnextGrace && slot.Load() == t; {
			runtime.Gosched()
		}
		slotStep(pid)
		if slot.CompareAndSwap(t, nil) {
			b.shards.cSteal.Inc()
			b.tracer.record(pid, t.ID(), trace.KindSteal, int64(b.shards.shardFor(v)))
			return t
		}
	}
	return nil
}

// anyReady is the re-check of a worker going idle: a shard or slot holds
// a thread.
func (b *Backend) anyReady(pid int) bool {
	ready := b.shards.size() > 0
	for i := 0; i < b.procs && !ready; i++ {
		slotStep(pid)
		ready = b.workers[i].runnext.Load() != nil
	}
	return ready
}

// stampReady starts t's dispatch-wait clock when it becomes ready; a
// thread moved between the slot and a shard keeps its first stamp.
func (b *Backend) stampReady(t *thread) {
	if b.dispatchWait != nil && t.readyAt == 0 {
		t.readyAt = b.sinceStart()
	}
}

// preemptNow returns the calling thread to the ready store and passes
// its processor on (quota exhaustion or yield). With nothing ready ahead
// of it t picks itself and keeps the processor: under FIFO a fresh key
// sends it behind every ready thread, under LIFO ahead of them all.
func (b *Backend) preemptNow(t *thread) {
	pid := t.pid
	b.shards.key(t)
	cand := b.own(pid, t)
	t.state = core.StateReady
	at := b.tracer.now()
	next := b.successor(pid, cand)
	if cand != t {
		b.putBack(cand, next, pid)
	}
	b.putBack(t, next, pid)
	t.passPark(next, at, trace.KindPreempt)
}

// own picks the successor candidate for a thread giving processor pid
// up: the leftmost of its shard's leftmost, its slot's occupant and the
// yielder before (nil at a block or exit), as one shard holding all
// three would. A losing occupant goes back to the shard.
func (b *Backend) own(pid int, before *thread) *thread {
	first := before
	rn := b.takeRunnext(pid)
	if rn != nil && (first == nil || rn.Before(first)) {
		first = rn
	}
	t := b.shards.pop(b.shards.shardFor(pid), first)
	if t == nil {
		t = first
	}
	if rn != nil && rn != t {
		b.shards.push(rn, pid)
	}
	return t
}

// successor marks the successor of a thread giving processor pid up
// running on pid: the candidate own popped. nil once the run is over.
func (b *Backend) successor(pid int, cand *thread) *thread {
	if cand == nil || b.done.Load() {
		return nil
	}
	b.markRunning(cand, pid)
	return cand
}

// putBack returns a ready thread the caller did not pick as its
// successor to pid's shard, keeping its key.
func (b *Backend) putBack(t, next *thread, pid int) {
	if t != nil && t != next {
		b.shards.push(t, pid)
	}
}

// admit counts a freshly created thread live on worker w.
func (b *Backend) admit(w *worker) {
	w.live++
	w.peakLive = max(w.peakLive, w.live)
}

// exitThread performs exit bookkeeping on t's own coroutine, wakes its
// joiner and returns the successor to pass the processor on to.
func (b *Backend) exitThread(t *thread) *thread {
	pid := t.pid
	w := b.workers[pid]
	w.maxSpan = max(w.maxSpan, t.span)
	w.live--
	b.stackAlloc(w, -t.stackSize)
	cand := b.own(pid, nil)
	t.state = core.StateExited
	var j *thread
	if !t.detached { // Join refuses a detached target before its word
		j = t.publishExit()
	}
	// After the publish: a joiner's KindBlock stamp precedes its CAS.
	at := b.tracer.now()
	var jid int64
	var back *thread // a ready thread exit does not run
	if j != nil {
		// Snapshot the joiner's trace id while exit still owns it: once
		// it is pushed or marked it can run, exit, and have its record
		// recycled before the KindWake emit below.
		jid = j.ID()
		j.state = core.StateReady
		b.shards.key(j)
		if cand == nil || j.Before(cand) {
			back, cand = cand, j // the joiner is the leftmost candidate
		} else {
			back = j
		}
	}
	next := b.successor(pid, cand)
	b.putBack(cand, next, pid)
	b.putBack(back, next, pid)
	b.tracer.recordAt(at, pid, t.ID(), trace.KindExit, 0)
	if j != nil {
		b.tracer.recordAt(at, pid, jid, trace.KindWake, 0)
	}
	return next
}

// newThread builds a thread without admitting it. pid is the creating
// processor (-1 for the root): it selects the record arena, and the
// carrier stays nil until the thread's first dispatch launches it.
func (b *Backend) newThread(pid int, attr core.Attr, body core.Body) *thread {
	core.CheckPriority(attr.Priority)
	var t *thread
	if pid >= 0 {
		t = b.recs[pid].Pop()
	}
	if t == nil {
		t = &thread{b: b}
	}
	countRMW()
	t.tok.ID = b.nextID.Add(1)
	t.tok.Priority = attr.Priority
	t.name = attr.Name
	t.body = body
	t.detached = attr.Detached
	t.stackSize = attr.StackSize
	if t.stackSize <= 0 {
		t.stackSize = b.defaultStack
	}
	refs := int32(2) // lifecycle holders: the exiting thread and the joiner
	if attr.Detached {
		refs = 1
	}
	t.refs.Store(refs)
	return t
}

// recordPanic records the first user panic and stops dispatching; the
// remaining parked threads are unwound at shutdown.
func (b *Backend) recordPanic(t *thread, r any) {
	b.lock()
	b.endLocked(fmt.Errorf("native: %s panicked: %v", t.Name(), r), trace.RunEndPanic)
	b.mu.Unlock()
}

// endLocked ends the run: no thread is marked running after it, and
// every idle worker wakes to exit. A non-nil err fails the run with the
// matching trace.RunEnd* status; the first error wins both. Caller holds
// b.mu.
func (b *Backend) endLocked(err error, status int64) {
	if err != nil && b.err == nil {
		b.err, b.endStatus = err, status
	}
	b.done.Store(true)
	b.cond.Broadcast()
}

// stats assembles the run's statistics after all goroutines quiesced,
// summing the workers' cells. TotalHWM is the highest value the shared
// total held; PeakLive and the class marks sum per-worker marks, upper
// bounds above one processor, and the class marks are capped by TotalHWM.
func (b *Backend) stats() core.Stats {
	elapsed := wallToV(time.Since(b.start))
	st := core.Stats{
		Policy:         b.policy,
		NumProcs:       b.procs,
		Time:           elapsed,
		ThreadsCreated: b.nextID.Load(),
		Procs:          make([]core.ProcStats, b.procs),
	}
	var dispatches, quota int64
	for i, w := range b.workers {
		st.Procs[i] = w.stats
		st.Procs[i].Idle = max(elapsed-w.stats.Work, 0)
		st.Work += w.stats.Work
		st.Span = max(st.Span, w.maxSpan)
		dispatches += w.stats.Dispatches
		quota += w.quotaPreempts
		st.DummyThreads += w.dummies
		st.PeakLive += int(w.peakLive)
		st.HeapHWM += w.heapHWM
		st.StackHWM += w.stackHWM
		st.TotalHWM = max(st.TotalHWM, w.totalHWM)
	}
	st.HeapHWM, st.StackHWM = min(st.HeapHWM, st.TotalHWM), min(st.StackHWM, st.TotalHWM)
	if r := b.registry; r != nil {
		r.Counter("sched.dispatches").Add(dispatches)
		r.Counter("sched.quota.preempts").Add(quota)
		r.Counter("sched.dummy.forks").Add(st.DummyThreads)
		st.Metrics = r.Snapshot()
	}
	return st
}

// wallToV converts elapsed wall time to virtual cycles at the
// calibrated clock rate.
func wallToV(d time.Duration) vtime.Duration {
	return vtime.Duration(d.Nanoseconds() * vtime.CyclesPerMicrosecond / 1000)
}

// vToWall converts a virtual duration to wall time.
func vToWall(d vtime.Duration) time.Duration {
	return time.Duration(int64(d) * 1000 / vtime.CyclesPerMicrosecond)
}
