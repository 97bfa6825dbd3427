// Package native executes lightweight-thread programs on real
// goroutines — the execution backend the paper's artifact corresponds
// to, as opposed to the deterministic virtual-time simulation in
// internal/core.
//
// Each lightweight thread rides a pooled core.Carrier (lifecycle.go)
// and is parked on its mailbox whenever it does not hold a processor.
// There are p processors (Config.Procs, default GOMAXPROCS), each a token
// held by one goroutine at a time, so at most p lightweight threads
// make progress concurrently — the execution model of the paper's
// library on an 8-way SMP. As in that user-level library, the thread that stops runs
// the scheduler: giving its processor up (fork, exit, Join, Yield,
// quota or time-slice preemption, Sleep, every sync-object block) it
// picks its successor — the forked child, or the policy's next thread,
// taken in the scheduler-lock section that recorded why it stopped —
// dispatches it from its own goroutine, and only then parks. Each
// processor also has a worker goroutine, which holds it only while no
// thread does: it dispatches a first thread, gets the processor back
// when a thread finds no successor, and runs the idle / deadlock /
// run-end protocol.
//
// The scheduling policies from internal/sched are reused unchanged:
// every policy call happens under the backend's scheduler lock (b.mu),
// which is a real sync.Mutex rather than the simulator's modeled lock.
// The ADF ordered placeholder list therefore becomes genuinely shared
// state. The sharded store (core.ShardedPolicy) is how a native run
// splits that lock; the simulator's two-level Q_in/Q_out batching has no
// native counterpart.
//
// One record per thread: a lightweight thread is a single thread value
// (thread.go). The token the policy orders by — a core.Thread: id,
// priority, policy state, DePa label — is a field of it, handed to every
// policy call by address, and its Owner field points back at the record.
// pick, under b.mu, is the only code that follows Owner (to turn the
// token policy.Next answers into the thread to dispatch); policies never
// look at it. The shutdown walk needs no registry of live threads: it
// poisons every carrier the pool ever started.
//
// Ordering invariant for blocking: a thread marks itself blocked in the
// policy (OnBlock, under b.mu) *before* registering with a sync
// object's waiter list. A waker can therefore only observe the waiter
// after its OnBlock, so the policy always sees OnBlock before the
// matching OnReady.
//
// Mailbox invariant: a dispatch is a non-blocking post of the processor
// id into the target's one-slot resume mailbox. Wake-before-park is
// therefore safe — a thread dispatched before it reaches its park finds
// the processor waiting there — and so are the shapes where a
// rendezvous would deadlock: two threads that pick each other, a thread
// that picks itself, a carrier that adopts its own successor. One
// slot is enough because a thread is marked running at most once per
// park; Carrier.Post panics otherwise.
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
	"spthreads/internal/exec"
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Config describes one native run.
type Config struct {
	// Procs is the number of worker goroutines (default GOMAXPROCS).
	Procs int
	// Policy is the scheduling policy (required). It is only ever
	// invoked under the backend's scheduler lock. A core.ShardedPolicy
	// is replaced by per-worker DePa-ordered heaps behind per-worker
	// locks (see shardStore), built with the policy's shard count, steal
	// window and strict mode: the global scheduler mutex shrinks to
	// lifecycle bookkeeping and ready traffic spreads across the shards.
	// The policy is then consulted only for quota/dummy/time-slice
	// parameters, and dispatch order is the ADF (priority, DePa label)
	// order with bounded-deviation steals.
	Policy core.Policy
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
type Backend struct {
	procs        int
	policy       core.Policy
	quota        int64
	defaultStack int64

	// mu is the scheduler lock: it guards the policy structure, the
	// thread-lifecycle fields below, and every counter not marked
	// atomic. cond signals idle workers when work becomes ready.
	mu   sync.Mutex
	cond *sync.Cond

	// shards, when non-nil, replaces the policy's ready structure with
	// the per-worker sharded store (a core.ShardedPolicy); b.ready stays
	// at zero then, and idleA mirrors b.idle into an atomic for the
	// store's lost-wakeup protocol.
	shards *shardStore
	idleA  atomic.Int64

	ready     int // threads in the policy's ready structure
	running   int // threads currently assigned to workers
	sleepers  int // threads parked on pending timers
	idle      int // workers waiting in cond.Wait
	live      int
	peakLive  int
	created   int64
	maxSpan   vtime.Duration
	err       error
	done      bool
	executed  bool
	endStatus int64 // trace.RunEnd* code; guarded by b.mu

	start time.Time

	mem mem // atomic footprint accounting

	nextID atomic.Int64 // thread ids; atomic so creation takes no lock

	carriers *core.Carriers                   // per-worker carrier free lists
	recs     []core.FreeList[thread, *thread] // per-worker thread-record arenas

	// Atomic tallies flushed into the metrics registry at stats time
	// (these fire in thread context without the scheduler lock).
	allocTally    atomic.Int64
	freeTally     atomic.Int64
	dummyTally    atomic.Int64
	quotaTally    atomic.Int64
	dispatchTally atomic.Int64

	registry  *metrics.Registry
	liveGauge *metrics.Gauge

	// Native scheduler observability (all nil-safe when detached).
	tracer       *tracer            // nil when no Config.Tracer
	traceRec     *trace.Recorder    // merge target at run end
	lockWait     *metrics.Histogram // wall ns blocked acquiring b.mu
	dispatchWait *metrics.Histogram // wall ns from ready to dispatch
	handoff      *metrics.Histogram // wall ns from a resume post to the resumed thread running
	mutexWait    *metrics.Histogram // wall ns blocked in nativeMutex.Lock
	readyGauge   *metrics.Gauge     // threads in the policy's ready structure
	runningGauge *metrics.Gauge     // threads currently assigned to workers

	workers []*worker
	wg      sync.WaitGroup // workers
}

// worker is one processor's local state.
type worker struct {
	stats      core.ProcStats
	dispatches *metrics.Counter // per-worker dispatch count (nil-safe)

	// home is where the processor comes back to the worker goroutine when
	// a thread gives it up and finds no successor. out is true while a
	// thread holds the processor: the worker sets it before dispatching,
	// the thread sending the processor home clears it, and the handoff
	// chain orders the two, so a double return trips pass's check (and
	// the race detector). wakeups counts the worker's dispatches.
	home    chan struct{}
	out     bool
	wakeups int64
}

// New builds a native backend from cfg.
func New(cfg Config) (*Backend, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("native: Config.Policy is required")
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	stack := cfg.DefaultStack
	if stack <= 0 {
		stack = core.DefaultStackSize
	}
	reg := cfg.Metrics
	b := &Backend{
		procs:        procs,
		policy:       cfg.Policy,
		quota:        cfg.Policy.Quota(),
		defaultStack: stack,
		registry:     reg,
		liveGauge:    reg.Gauge("threads.live"),
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
	b.mutexWait = reg.Histogram("sync.mutex.wait")
	b.readyGauge = reg.Gauge("sched.ready")
	b.runningGauge = reg.Gauge("sched.running")
	for i := range b.workers {
		b.workers[i] = &worker{
			dispatches: reg.Counter(fmt.Sprintf("sched.dispatches.w%d", i)),
			home:       make(chan struct{}, 1),
		}
	}
	if sp, ok := cfg.Policy.(core.ShardedPolicy); ok {
		// A sharded policy in strict mode reports Global() == true.
		b.shards = newShardStore(b, sp.NumShards(), sp.StealWindow(), sp.Global())
	}
	return b, nil
}

// Name implements exec.Backend.
func (b *Backend) Name() string { return "native" }

// Execute implements exec.Backend: it runs main as the root thread on
// b.procs workers and blocks until the run completes.
func (b *Backend) Execute(main func(exec.Thread)) (core.Stats, error) {
	if b.executed {
		return core.Stats{}, fmt.Errorf("native: backend already executed")
	}
	b.executed = true
	b.start = time.Now()
	if b.tracer != nil {
		b.tracer.start = b.start
	}

	root := b.newThread(-1, core.Attr{Name: "main"}, exec.Func(main))
	root.tok.Order = core.RootDepaLabel()
	b.mem.allocStack(root.stackSize)
	b.tracer.record(-1, root.ID(), trace.KindCreate, 0) // Arg 0: no parent
	b.tracer.record(-1, root.ID(), trace.KindStackAlloc, root.stackSize)
	b.mu.Lock()
	b.admit(root)
	if b.shards == nil {
		b.policy.OnCreate(nil, &root.tok)
	}
	root.state = core.StateReady
	if b.shards == nil {
		b.noteReady(root)
	}
	b.mu.Unlock()
	if b.shards != nil {
		b.shards.push(root, 0)
	}

	b.wg.Add(b.procs)
	for pid := 0; pid < b.procs; pid++ {
		go b.runWorker(pid)
	}
	b.wg.Wait()
	// A worker exits only with its processor home, so no thread holds
	// one and no mailbox holds a post: the carriers can be poisoned.
	b.carriers.Shutdown()
	// Every worker and thread goroutine has quiesced; only stray timers
	// may still fire, and those record nothing once b.done is set (they
	// check under b.mu, which orders their writes before the merge).
	b.mu.Lock()
	b.tracer.record(-1, 0, trace.KindRunEnd, b.endStatus)
	b.tracer.finish(b.traceRec)
	b.mu.Unlock()
	return b.stats(), b.err
}

// runWorker is processor pid's worker goroutine: it finds a thread
// (sleeping in next while there is none), hands the processor over, and
// waits for it to come home.
func (b *Backend) runWorker(pid int) {
	defer b.wg.Done()
	w := b.workers[pid]
	for {
		t := b.next(pid)
		if t == nil {
			return
		}
		w.out = true
		w.wakeups++
		b.dispatch(t, pid)
		<-w.home
	}
}

// dispatch hands processor pid to t, which the caller marked running on
// it under b.mu. It runs on whichever goroutine holds the processor —
// the thread giving it up, or the worker — and never waits for t: a
// first dispatch launches t onto a pooled carrier, a later one posts
// to t's mailbox. Every dispatch follows exactly one markRunning, so the
// KindDispatch record is issued here, with markRunning's timestamp,
// while t is already running; the capture precedes the post because t
// can then block and be re-marked, or exit and have its record
// recycled.
func (b *Backend) dispatch(t *thread, pid int) {
	at, id := t.dispatchAt, t.ID()
	if t.launch {
		// t binds its carrier on its own goroutine (Ride), before any
		// b.mu section that can make it dispatchable again; later
		// dispatchers read t.carrier behind that.
		b.carriers.Launch(pid, t, pid)
	} else {
		if b.handoff != nil {
			t.postAt = b.sinceStart()
		}
		t.carrier.Post(pid)
	}
	b.tracer.recordAt(at, pid, id, trace.KindDispatch, 0)
}

// pass moves processor pid on from the thread giving it up: to next,
// the successor it picked, or home to the worker when there is none.
func (b *Backend) pass(pid int, next *thread) {
	if next != nil {
		b.dispatch(next, pid)
		return
	}
	w := b.workers[pid]
	if !w.out {
		panic(fmt.Sprintf("native: processor %d returned twice", pid))
	}
	w.out = false
	w.home <- struct{}{}
}

// lock acquires the scheduler lock, recording how long the acquisition
// blocked (wall ns) when a registry is attached. The uncontended fast
// path observes 0, mirroring the sim's lock instruments, so the
// histogram's count doubles as an acquisition count.
func (b *Backend) lock() {
	if b.lockWait == nil {
		b.mu.Lock()
		return
	}
	if b.mu.TryLock() {
		b.lockWait.Observe(0)
		return
	}
	t0 := time.Now()
	b.mu.Lock()
	b.lockWait.Observe(time.Since(t0).Nanoseconds())
}

// noteReady counts t into the ready structure, maintaining the
// run-queue gauge and stamping the thread for dispatch-latency
// measurement. Caller holds b.mu and has already called the policy's
// OnCreate/OnReady.
func (b *Backend) noteReady(t *thread) {
	b.ready++
	b.readyGauge.Set(int64(b.ready))
	if b.dispatchWait != nil {
		t.readyAt = b.sinceStart()
	}
}

// sinceStart is the run's monotonic clock: wall ns since Execute began.
func (b *Backend) sinceStart() int64 { return time.Since(b.start).Nanoseconds() }

// pick takes the next thread for processor pid out of the ready
// structure and marks it running on pid;
// nil when nothing is ready or the run is over. Caller holds b.mu: a
// thread giving its processor up calls it in the section that recorded
// why it stopped, a worker from next. The sharded store answers nil — a
// shard take never nests inside b.mu — so there the processor goes home
// and the worker takes.
func (b *Backend) pick(pid int) *thread {
	if b.done || b.shards != nil {
		return nil
	}
	if b.ready == 0 {
		return nil
	}
	tok := b.policy.Next(pid)
	if tok == nil {
		return nil
	}
	b.ready--
	t := tok.Owner.(*thread)
	b.readyGauge.Set(int64(b.ready))
	b.markRunning(t, pid)
	return t
}

// next blocks until there is a thread for worker pid to dispatch (marked
// running on pid), the run completes, or a deadlock is detected.
func (b *Backend) next(pid int) *thread {
	if b.shards != nil {
		return b.nextSharded(pid)
	}
	b.lock()
	defer b.mu.Unlock()
	for {
		if b.done {
			return nil
		}
		if t := b.pick(pid); t != nil {
			return t
		}
		if b.live == 0 {
			b.done = true
			b.cond.Broadcast()
			return nil
		}
		b.idle++
		if b.idle == b.procs && b.running == 0 && b.sleepers == 0 && b.ready == 0 {
			b.failLocked(fmt.Errorf("native: deadlock: %d threads live, none runnable", b.live),
				trace.RunEndDeadlock)
			b.idle--
			return nil
		}
		b.cond.Wait()
		b.idle--
	}
}

// nextSharded is next for the sharded store: take (own pop or bounded
// steal) happens entirely outside b.mu; only marking the thread running
// and the idle/deadlock protocol touch the scheduler lock. The idle
// mirror idleA plus the post-increment total re-check implement the
// sleeper half of the store's Dekker protocol.
func (b *Backend) nextSharded(pid int) *thread {
	for {
		if t := b.shards.take(pid); t != nil {
			b.lock()
			b.markRunning(t, pid)
			b.mu.Unlock()
			return t
		}
		b.lock()
		if b.done {
			b.mu.Unlock()
			return nil
		}
		if b.live == 0 {
			b.done = true
			b.cond.Broadcast()
			b.mu.Unlock()
			return nil
		}
		b.idle++
		b.idleA.Add(1)
		if b.shards.total.Load() > 0 {
			// Work appeared between the failed take and going idle.
			b.idle--
			b.idleA.Add(-1)
			b.mu.Unlock()
			continue
		}
		if b.idle == b.procs && b.running == 0 && b.sleepers == 0 {
			b.failLocked(fmt.Errorf("native: deadlock: %d threads live, none runnable", b.live),
				trace.RunEndDeadlock)
			b.idle--
			b.idleA.Add(-1)
			b.mu.Unlock()
			return nil
		}
		b.cond.Wait()
		b.idle--
		b.idleA.Add(-1)
		b.mu.Unlock()
	}
}

// addRunning adjusts the running-thread count and its gauge mirror.
// Caller holds b.mu.
func (b *Backend) addRunning(d int) {
	b.running += d
	b.runningGauge.Set(int64(b.running))
}

// markRunning assigns t to processor pid; the caller dispatches it
// after dropping b.mu. t.pid is not written here: t adopts the pid the
// dispatch carries, on its own goroutine. Caller holds b.mu.
func (b *Backend) markRunning(t *thread, pid int) {
	t.state = core.StateRunning
	t.launch = !t.started
	t.started = true
	t.quotaLeft = b.quota
	b.addRunning(1)
	b.workers[pid].stats.Dispatches++
	b.workers[pid].dispatches.Inc()
	b.dispatchTally.Add(1)
	if b.dispatchWait != nil && t.readyAt != 0 {
		b.dispatchWait.Observe(b.sinceStart() - t.readyAt)
		t.readyAt = 0
	}
	// The KindDispatch ring write is deferred to dispatch, after the
	// caller drops b.mu; only the timestamp is taken here so trace order
	// still matches lock order.
	t.dispatchAt = b.tracer.now()
}

// blockPrep marks t blocked in the policy. It must be called on t's own
// goroutine, before t is registered with any waiter list, and must be
// followed by t.blockPark.
func (b *Backend) blockPrep(t *thread) {
	b.lock()
	t.state = core.StateBlocked
	if b.shards == nil {
		// Sharded mode skips the policy: a running thread has no entry
		// in any shard heap, so there is nothing to mark blocked.
		b.policy.OnBlock(&t.tok)
	}
	b.addRunning(-1)
	at := b.tracer.now()
	b.mu.Unlock()
	b.tracer.recordAt(at, t.pid, t.ID(), trace.KindBlock, 0)
}

// readyThread makes a blocked thread runnable again. pid is the waking
// processor. Call only from thread context (a carrier goroutine): the
// deferred wake record relies on the carriers' shutdown wait ordering it
// before the
// run-end merge — timer wakes go through wakeSleeper, which records
// under b.mu instead.
func (b *Backend) readyThread(t *thread, pid int) {
	b.lock()
	if b.done {
		b.mu.Unlock()
		return
	}
	t.state = core.StateReady
	if b.shards == nil {
		b.policy.OnReady(&t.tok, pid)
		b.noteReady(t)
	}
	// Id snapshot: after the unlock (global path) or the shard push, t
	// can be dispatched, run to exit, and have its record recycled
	// before the KindWake emit below.
	at, id := b.tracer.now(), t.ID()
	if b.shards == nil {
		b.cond.Signal()
	}
	b.mu.Unlock()
	if b.shards != nil {
		// Shard locks never nest inside b.mu: the push (and its idle
		// signal) happens after the lifecycle section.
		b.shards.push(t, pid)
	}
	b.tracer.recordAt(at, pid, id, trace.KindWake, 0)
}

// preemptNow returns the calling thread to the ready structure and
// passes its processor on (quota exhaustion or yield). With
// nothing else ready t picks itself: a post into its own mailbox.
func (b *Backend) preemptNow(t *thread) {
	pid := t.pid
	b.lock()
	t.state = core.StateReady
	b.addRunning(-1)
	at := b.tracer.now()
	var next *thread
	if b.shards == nil {
		b.policy.OnReady(&t.tok, pid)
		b.noteReady(t)
		next = b.pick(pid)
		if next != t {
			b.cond.Signal() // t stays ready for another processor
		}
	}
	b.mu.Unlock()
	if b.shards != nil {
		b.shards.push(t, pid)
	}
	t.passPark(next, at, trace.KindPreempt)
}

// admit registers a freshly created thread. Caller holds b.mu.
func (b *Backend) admit(t *thread) {
	b.live++
	b.created++
	if b.live > b.peakLive {
		b.peakLive = b.live
	}
	b.liveGauge.Set(int64(b.live))
}

// exitThread performs exit bookkeeping on t's own goroutine, wakes its
// joiner and passes its processor on.
func (b *Backend) exitThread(t *thread) {
	pid := t.pid
	b.mem.freeStack(t.stackSize)
	b.lock()
	t.state = core.StateExited
	t.done = true
	t.exitedSpan = t.span
	if t.span > b.maxSpan {
		b.maxSpan = t.span
	}
	if b.shards == nil {
		b.policy.OnExit(&t.tok)
	}
	b.live--
	b.addRunning(-1)
	b.liveGauge.Set(int64(b.live))
	at := b.tracer.now()
	j := t.joiner
	var jid int64
	if j != nil {
		// Snapshot the joiner's trace id while b.mu still excludes its
		// dispatch: once the wake is published the joiner can run, exit,
		// and have its record recycled before the KindWake emit below.
		jid = j.ID()
		j.state = core.StateReady
		if b.shards == nil {
			b.policy.OnReady(&j.tok, pid)
			b.noteReady(j)
		}
	}
	if b.live == 0 {
		b.done = true
		b.cond.Broadcast()
	}
	next := b.pick(pid)
	if j != nil && b.shards == nil && next != j {
		b.cond.Signal() // the joiner stays ready for another processor
	}
	b.mu.Unlock()
	if b.shards != nil && j != nil {
		// The joiner's exitedSpan/done reads are ordered by the b.mu
		// section above; only then may another worker dispatch it.
		b.shards.push(j, pid)
	}
	// Pass the processor on first; the exit and joiner-wake records then
	// land in the dispatch's shadow. This goroutine still emits them
	// before its carrier's shutdown, so the run-end merge observes them.
	b.pass(pid, next)
	b.tracer.recordAt(at, pid, t.ID(), trace.KindExit, 0)
	if j != nil {
		b.tracer.recordAt(at, pid, jid, trace.KindWake, 0)
	}
}

// newThread builds a thread without admitting it. pid is the creating
// processor (-1 for the root): it selects the record arena, and the
// carrier stays nil until the thread's first dispatch launches it.
func (b *Backend) newThread(pid int, attr core.Attr, body exec.Body) *thread {
	core.CheckPriority(attr.Priority)
	var t *thread
	if pid >= 0 {
		t = b.recs[pid].Pop()
	}
	if t == nil {
		t = &thread{b: b}
	}
	t.tok.ID = b.nextID.Add(1)
	t.tok.Priority = attr.Priority
	t.tok.Owner = t
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
// remaining parked threads are poisoned at shutdown.
func (b *Backend) recordPanic(t *thread, r any) {
	b.lock()
	b.failLocked(fmt.Errorf("native: %s panicked: %v", t.Name(), r), trace.RunEndPanic)
	b.mu.Unlock()
}

// failLocked records err and the matching trace.RunEnd* status (first
// error wins both) and wakes all workers. Caller holds b.mu.
func (b *Backend) failLocked(err error, status int64) {
	if b.err == nil {
		b.err = err
		b.endStatus = status
	}
	b.done = true
	b.cond.Broadcast()
}

// stats assembles the run's statistics after all goroutines quiesced.
func (b *Backend) stats() core.Stats {
	elapsed := wallToV(time.Since(b.start))
	if r := b.registry; r != nil {
		r.Counter("sched.dispatches").Add(b.dispatchTally.Load())
		r.Counter("sched.quota.preempts").Add(b.quotaTally.Load())
		r.Counter("sched.dummy.forks").Add(b.dummyTally.Load())
		r.Counter("mem.allocs").Add(b.allocTally.Load())
		r.Counter("mem.frees").Add(b.freeTally.Load())
	}
	st := core.Stats{
		Policy:         b.policy.Name(),
		NumProcs:       b.procs,
		Time:           elapsed,
		Span:           b.maxSpan,
		ThreadsCreated: b.created,
		DummyThreads:   b.dummyTally.Load(),
		PeakLive:       b.peakLive,
		HeapHWM:        b.mem.heapHWM.Load(),
		StackHWM:       b.mem.stackHWM.Load(),
		TotalHWM:       b.mem.totalHWM.Load(),
		Procs:          make([]core.ProcStats, b.procs),
		Metrics:        b.registry.Snapshot(),
	}
	for i, w := range b.workers {
		ps := w.stats
		ps.Idle = elapsed - ps.Work
		if ps.Idle < 0 {
			ps.Idle = 0
		}
		st.Procs[i] = ps
		st.Work += ps.Work
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
