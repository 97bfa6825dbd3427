package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"spthreads/internal/memsim"
	"spthreads/internal/metrics"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Config describes the simulated machine for one run.
type Config struct {
	// Procs is the number of virtual processors (default 1).
	Procs int
	// Policy is the scheduling policy (required).
	Policy Policy
	// Quota is the memory discipline Malloc applies (zero: none).
	Quota Quota
	// DefaultStack is the default thread stack size in bytes (the
	// Solaris library default is 1 MB; the paper's modification reduces
	// it to one 8 KB page). Default: 1 MB.
	DefaultStack int64
	// MaxSteps aborts runaway simulations (default 1<<40 dispatch steps).
	MaxSteps int64
	// SchedBatch selects how global-queue policies interact with the
	// scheduler lock. SchedBatch > 1 enables the paper's two-level
	// Q_in/R/Q_out batching with workers volunteering to run the
	// scheduler pass, SchedBatch being the per-processor Q_out capacity
	// B. 0 or 1 charges every ready-queue operation under the global
	// lock (the paper's original scheduler). Batching applies to
	// global-queue policies only; the others keep the direct path
	// regardless.
	SchedBatch int
	// Tracer, when non-nil, records scheduler events (create, dispatch,
	// preempt, block, wake, exit) without affecting virtual time.
	Tracer *trace.Recorder
	// Metrics, when non-nil, receives scheduler/memory instrument updates
	// (dispatch latencies, lock waits, quota preemptions, ...); a final
	// snapshot lands in Stats.Metrics. Nil costs the hot paths only a nil
	// check per update and never perturbs virtual time.
	Metrics *metrics.Registry
}

// DefaultStackSize is the Solaris library's default thread stack size.
const DefaultStackSize int64 = 1 << 20

// SmallStackSize is one page, the paper's reduced default.
const SmallStackSize int64 = 8 << 10

// Quantum bounds how much virtual time a thread may accumulate before
// it stops to run the scheduler, which lets processors whose clocks are
// now behind catch up. It controls interleaving granularity, not
// scheduling: the thread keeps its processor and, while it holds the
// minimum clock, runs on without a coroutine switch.
const Quantum = vtime.Duration(250 * vtime.CyclesPerMicrosecond)

// Machine is one simulated multiprocessor run. It is not reusable: build
// one per Run.
type Machine struct {
	cfg    Config
	cm     *vtime.CostModel
	mem    *memsim.System
	policy Policy
	procs  []*Proc

	// Contention models for the global scheduler lock, the heap
	// allocator lock, and kernel memory calls (Section 3.1: threads
	// "contend for allocation of stack and heap space, as well as for
	// scheduler locks", with memory-related system calls dominating the
	// Figure 6 profile).
	schedLock  *contention
	heapLock   *contention
	kernelLock *contention

	// Sharded scheduling (core.ShardedPolicy): the single charged
	// scheduler lock is replaced by one short-window contention model per
	// shard, and cross-shard dispatches additionally pay steal probes plus
	// the victim shard's lock. sharded is nil for every
	// other configuration, keeping all existing charging byte-identical.
	sharded    ShardedPolicy
	shardLocks []*contention

	readyAt timeHeap // one entry per ready thread: when it became ready

	// sleepers holds threads parked by Sleep until a virtual deadline.
	sleepers []sleeper

	// Two-level batched scheduling (Config.SchedBatch). batch is the
	// per-processor Q_out capacity; batch <= 1 means the direct path and
	// every other field below stays dormant.
	batch      int
	qinPending int64     // Q_in entries since the last scheduler pass
	hungry     []*Proc   // a scheduler pass's receivers, reused pass to pass
	passed     []*Thread // a scheduler pass's threads, reused pass to pass

	nextID   int64
	peakLive int
	created  int64
	dummies  int64
	maxSpan  vtime.Duration
	steps    int64

	// threads are the live threads, each at its record's slot; free
	// holds the released records (see release).
	threads []*Thread
	free    FreeList[freeRec, *freeRec]

	// carriers are the coroutines threads ride, on one free list:
	// Execute's goroutine is the one driver for every virtual processor.
	carriers *Carriers
	// resumes counts carrier resumes: handoffs to a parked thread (a
	// first run launches instead, a self-pick costs nothing).
	resumes int64
	// fault is a machine-invariant panic raised while a thread was
	// running the scheduler, carried to the driver.
	fault any

	// ins holds the machine's pre-resolved instrument handles. With no
	// registry attached every handle is nil and updates are no-ops.
	ins instruments

	err error
}

// instruments are the machine's metric handles, resolved once at build
// time so hot paths never do registry lookups.
type instruments struct {
	dispatches    *metrics.Counter   // sched.dispatches
	dispatchWait  *metrics.Histogram // sched.dispatch.wait (cycles)
	schedLockWait *metrics.Histogram // sched.lock.wait (cycles)
	quotaPreempts *metrics.Counter   // sched.quota.preempts
	dummyForks    *metrics.Counter   // sched.dummy.forks
	// batchPasses (sched.batch.passes) is bound only in a batched mode,
	// so direct-mode snapshots do not list it.
	batchPasses *metrics.Counter
}

func (m *Machine) bindInstruments(r *metrics.Registry) {
	m.ins = instruments{
		dispatches:    r.Counter("sched.dispatches"),
		dispatchWait:  r.Histogram("sched.dispatch.wait"),
		schedLockWait: r.Histogram("sched.lock.wait"),
		quotaPreempts: r.Counter("sched.quota.preempts"),
		dummyForks:    r.Counter("sched.dummy.forks"),
	}
	if m.batch > 1 {
		m.ins.batchPasses = r.Counter("sched.batch.passes")
	}
}

// Proc is one virtual processor.
type Proc struct {
	id    int
	clock vtime.Time
	cur   *Thread
	tlb   *memsim.TLB
	stats ProcStats

	// qout is the processor's prefetched ready batch (batched modes):
	// threads already removed from the policy's ready structure by a
	// scheduler pass, dispatched without the global lock. A pass fills
	// only empty Q_outs, so every entry is available at the same time,
	// qoutAt (the completing pass's timestamp). The batch is stored
	// back to front, so a dispatch pops the end and the slice keeps its
	// backing array for the next refill.
	qout   []*Thread
	qoutAt vtime.Time
}

// ProcStats is the per-processor virtual-time breakdown. Idle is filled
// in when the run's Stats are assembled.
type ProcStats struct {
	Work       vtime.Duration // user computation (Charge)
	ThreadOps  vtime.Duration // create/join/sync primitives
	Mem        vtime.Duration // allocation, first-touch, TLB
	Sched      vtime.Duration // queue operations and context switches
	LockWait   vtime.Duration // contention on the scheduler lock
	Idle       vtime.Duration
	Dispatches int64
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Policy == nil {
		return nil, errors.New("core: Config.Policy is required")
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.DefaultStack <= 0 {
		cfg.DefaultStack = DefaultStackSize
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1 << 40
	}
	cm := vtime.Default()
	m := &Machine{
		cfg:        cfg,
		cm:         cm,
		policy:     cfg.Policy,
		mem:        memsim.New(cm, cfg.DefaultStack, 0),
		carriers:   NewCarriers(1),
		schedLock:  newContention(cm.SchedLockOp, cm.SchedLockWindow),
		heapLock:   newContention(cm.MallocBase, cm.HeapLockWindow),
		kernelLock: newContention(cm.KernelLockOp, cm.KernelLockWindow),
	}
	// Batching needs a global-queue policy; anything else silently keeps
	// the direct path, as does SchedBatch <= 1 (a batch of one is the
	// direct scheduler).
	if cfg.SchedBatch > 1 && m.policy.Global() {
		m.batch = cfg.SchedBatch
	}
	if sp, ok := m.policy.(ShardedPolicy); ok && !m.policy.Global() {
		m.sharded = sp
		m.shardLocks = make([]*contention, max(sp.NumShards(), 1))
		for i := range m.shardLocks {
			m.shardLocks[i] = newContention(cm.SchedShardLockOp, cm.SchedShardLockWindow)
		}
	}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{id: i, tlb: memsim.NewTLB(memsim.DefaultTLBEntries)}
	}
	m.bindInstruments(cfg.Metrics)
	return m, nil
}

// Execute runs main as the root thread of a freshly built machine and
// drives the simulation to completion (every thread exited) or failure
// (deadlock, panic in thread code, or step-limit exceeded). A machine
// is single-use: Execute must be called at most once.
func (m *Machine) Execute(main func(Handle)) (Stats, error) {
	if m.nextID != 0 {
		return Stats{}, errors.New("core: machine already executed")
	}
	root := m.newThread(Attr{Name: "root"}, Func(main))
	root.Order = RootDepaLabel()
	// The root's stack predates the run; count its footprint silently.
	root.stackAddr, _, _ = m.mem.AllocStack(root.attr.StackSize)
	if tr := m.cfg.Tracer; tr != nil {
		tr.Record(0, -1, root.ID, trace.KindCreate) // Arg 0: the root has no parent
		tr.RecordArg(0, -1, root.ID, trace.KindStackAlloc, root.attr.StackSize)
	}
	m.admit(root)
	m.policy.OnCreate(nil, root)
	root.state = StateReady
	m.readyAt.push(0)

	// This goroutine is the driver: it resumes the thread that must run,
	// and the thread, once it stops, runs schedule itself and yields the
	// thread it returns. A nil successor means the run is over.
	for t := m.schedule(); t != nil; t = m.drive(t) {
	}
	m.carriers.Shutdown()
	if m.fault != nil {
		panic(m.fault)
	}
	return m.stats(), m.err
}

// schedule advances the machine until some processor's current thread
// must run, and returns that thread: it takes the minimum-clock
// processor, dispatches ready work to it while it is idle, and wakes
// sleepers or diagnoses deadlock when no processor can move. It returns
// nil when the run is over (every thread exited, or m.err is set).
func (m *Machine) schedule() *Thread {
	for len(m.threads) > 0 && m.err == nil {
		m.steps++
		if m.steps > m.cfg.MaxSteps {
			m.err = fmt.Errorf("core: exceeded %d scheduling steps", m.cfg.MaxSteps)
			break
		}
		m.wakeDueSleepers()
		p := m.pickProc()
		if p == nil {
			if m.wakeEarliestSleeper() {
				continue
			}
			m.err = m.deadlockError()
			break
		}
		if p.cur == nil {
			m.dispatch(p)
			continue
		}
		return p.cur
	}
	return nil
}

// reschedule applies the action t stopped for and returns the next
// thread to run (nil when the run is over). It runs inside t's body, and
// so does any machine-invariant panic raised in here: that is a fault of
// the machine, not of t, so instead of unwinding t as a user panic it is
// kept in m.fault for the driver to re-raise after shutdown.
func (m *Machine) reschedule(t *Thread, act action) (next *Thread) {
	defer func() {
		if r := recover(); r != nil {
			m.fault = r
			next = nil
		}
	}()
	m.apply(t, act)
	return m.schedule()
}

// drive gives the machine to t, which schedule chose: a first run
// launches it on an idle carrier (a fresh coroutine only when none is
// idle), a later one resumes its carrier. It returns the successor t
// yielded when it stopped, nil when the run is over.
func (m *Machine) drive(t *Thread) *Thread {
	var r Rider
	if t.carrier == nil {
		r = m.carriers.Launch(0, (*rider)(t), t.proc.id)
	} else {
		m.resumes++
		r = m.carriers.Resume(0, (*rider)(t), t.carrier, t.proc.id)
	}
	next, _ := r.(*rider)
	return (*Thread)(next)
}

// sleeper is a thread parked until a virtual deadline. claim, when
// non-nil, arbitrates a timed condition wait: if it reports false a
// signal woke the thread first, and the sleeper entry is a no-op.
type sleeper struct {
	at    vtime.Time
	t     *Thread
	claim func() bool
}

// wakeDueSleepers readies every sleeper whose deadline is at or before
// the earliest processor clock (they could legally run now).
func (m *Machine) wakeDueSleepers() {
	if len(m.sleepers) == 0 {
		return
	}
	min := m.minClock()
	kept := m.sleepers[:0]
	for _, s := range m.sleepers {
		if s.at <= min {
			m.wakeSleeper(s)
		} else {
			kept = append(kept, s)
		}
	}
	m.sleepers = kept
}

// wakeEarliestSleeper readies the sleeper with the nearest deadline when
// nothing else can run (the machine is otherwise idle), reporting
// whether one existed.
func (m *Machine) wakeEarliestSleeper() bool {
	if len(m.sleepers) == 0 {
		return false
	}
	best := 0
	for i, s := range m.sleepers {
		if s.at < m.sleepers[best].at {
			best = i
		}
	}
	s := m.sleepers[best]
	m.sleepers = append(m.sleepers[:best], m.sleepers[best+1:]...)
	m.wakeSleeper(s)
	return true
}

// wakeSleeper re-enters a slept thread at its deadline timestamp.
func (m *Machine) wakeSleeper(s sleeper) {
	if s.claim != nil && !s.claim() {
		return // a signal won the race
	}
	s.t.state = StateReady
	m.policy.OnReady(s.t, -1)
	m.readyAt.push(s.at)
	if tr := m.cfg.Tracer; tr != nil {
		tr.Record(s.at, -1, s.t.ID, trace.KindWake)
	}
}

// pickProc selects the runnable processor with the smallest key, ties
// broken by id, or nil if no processor can make progress. A busy
// processor's key is its clock. An idle one competes only while ready
// work exists: keyed at max(clock, its Q_out front's time) when it holds
// prefetched work (batched modes), else at max(clock, earliest ready
// time). One scan serves both modes. A clock index would replace it with
// an O(log p) descent, but every clock advance would then have to update
// the index; measured up to p = 1024 (DESIGN §5), the two cost the same.
func (m *Machine) pickProc() *Proc {
	var best *Proc
	var bestKey vtime.Time
	haveReady := m.readyAt.len() > 0
	var readyMin vtime.Time
	if haveReady {
		readyMin = m.readyAt.min()
	}
	for _, p := range m.procs {
		key := p.clock
		switch {
		case p.cur != nil:
		case len(p.qout) > 0:
			key = max(key, p.qoutAt)
		case haveReady:
			key = max(key, readyMin)
		default:
			continue
		}
		// Ascending-id scan: comparing with < keeps the smallest-id tie-break.
		if best == nil || key < bestKey {
			best, bestKey = p, key
		}
	}
	return best
}

// dispatch assigns the next ready thread to an idle processor.
func (m *Machine) dispatch(p *Proc) {
	if m.batch > 1 {
		m.dispatchBatched(p)
		return
	}
	at := m.readyAt.min()
	if at > p.clock {
		m.liftClock(p, at) // the gap is idle time, derived in stats()
	}
	m.queueOp(p)
	t := m.policy.Next(p.id)
	if t == nil {
		panic(fmt.Sprintf("core: policy %s found no thread with %d ready", m.policy.Name(), m.readyAt.len()))
	}
	if m.sharded != nil {
		m.chargeSteal(p, t)
	}
	m.readyAt.pop()
	// Dispatch latency: how long the oldest pending ready timestamp had
	// been waiting when this processor picked up work.
	m.ins.dispatchWait.Observe(int64(p.clock - at))
	m.assign(p, t)
}

// dispatchBatched pops the processor's Q_out front (a lock-free pop in
// the modeled machine, charged SchedLocalOp); on underflow the processor
// first obtains a refill via a scheduler pass.
func (m *Machine) dispatchBatched(p *Proc) {
	if len(p.qout) == 0 {
		m.schedulerPass(p)
	}
	at := p.qoutAt
	if at > p.clock {
		m.liftClock(p, at) // the refill completed in the future: idle gap
	}
	t := p.qout[len(p.qout)-1]
	p.qout = p.qout[:len(p.qout)-1]
	p.stats.Sched += m.cm.SchedLocalOp
	m.tick(p, m.cm.SchedLocalOp)
	m.ins.dispatchWait.Observe(int64(p.clock - at))
	m.assign(p, t)
}

// schedulerPass is one batch move of the two-level scheduler: drain all
// Q_in entries into the policy's ordered ready structure R (already
// reflected there — see queueOp — so the drain contributes only cost),
// then pull the leftmost ready threads from R and deal them into the
// Q_outs of every hungry processor, all inside a single lock critical
// section charged SchedLockOp plus SchedBatchMove per thread moved.
// The calling processor p volunteers: it pays the pass on its own clock
// and contends on the scheduler lock.
func (m *Machine) schedulerPass(p *Proc) {
	// p was picked at key max(clock, readyAt.min()), so ready work exists;
	// lift its clock to the earliest ready time before starting the pass.
	if r := m.readyAt.min(); r > p.clock {
		m.liftClock(p, r)
	}
	// The requesting processor is always first so the leftmost thread of
	// the refill lands in its Q_out (it is guaranteed work after the
	// pass); other hungry processors join in ascending id order.
	hungry := append(m.hungry[:0], p)
	for _, q := range m.procs {
		if q != p && q.cur == nil && len(q.qout) == 0 {
			hungry = append(hungry, q)
		}
	}
	m.hungry = hungry
	start := p.clock
	drained := m.qinPending
	m.qinPending = 0
	// Collect the batch to a fixed point: the pass's critical section
	// takes SchedLockOp + SchedBatchMove per entry moved, and any thread
	// becoming ready before the pass completes is swept into the same
	// batch (it is handed out stamped at the pass's completion time, so
	// it is never dispatched before it is ready). This is what makes
	// batches grow with the fork rate instead of staying at the handful
	// of threads ready at the instant the pass begins.
	capTotal := len(hungry) * m.batch
	n := 0
	var cost vtime.Duration
	for {
		cost = m.cm.SchedLockOp + vtime.Duration(int64(n)+drained)*m.cm.SchedBatchMove
		deadline := start + vtime.Time(cost)
		grew := false
		for n < capTotal && m.readyAt.len() > 0 && m.readyAt.min() <= deadline {
			m.readyAt.pop()
			n++
			grew = true
		}
		if !grew {
			break
		}
	}
	if n == 0 {
		panic("core: scheduler pass found no ready work")
	}
	// The batch is the n threads n successive Next calls dispatch, in
	// that order (leftmost-ready first for ADF).
	threads := m.passed[:0]
	for range n {
		t := m.policy.Next(p.id)
		if t == nil {
			panic(fmt.Sprintf("core: policy %s found %d of %d batched threads", m.policy.Name(), len(threads), n))
		}
		threads = append(threads, t)
	}
	m.passed = threads
	p.stats.Sched += cost
	m.tick(p, cost)
	m.schedLockWait(p, m.schedLock)
	passDone := p.clock
	// Deal round-robin starting at the requester; each Q_out receives its
	// share in leftmost-first order, available once the pass completes.
	// Dealing from the back stores each share back to front.
	for i := n - 1; i >= 0; i-- {
		q := hungry[i%len(hungry)]
		q.qout = append(q.qout, threads[i])
		q.qoutAt = passDone
	}
	m.ins.batchPasses.Inc()
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(passDone, p.id, 0, trace.KindBatchRefill, int64(n))
	}
}

// assign puts thread t on processor p and charges the context switch.
func (m *Machine) assign(p *Proc, t *Thread) {
	t.state = StateRunning
	t.proc = p
	p.cur = t
	if tr := m.cfg.Tracer; tr != nil {
		tr.Record(p.clock, p.id, t.ID, trace.KindDispatch)
	}
	p.stats.Sched += m.cm.ContextSwitch
	m.tick(p, m.cm.ContextSwitch)
	p.stats.Dispatches++
	m.ins.dispatches.Inc()
	t.quotaLeft = m.cfg.Quota.K
	if !t.started {
		// The thread's first frames fault in the base of its stack.
		cost := m.mem.Touch(p.tlb, t.stackAddr, memsim.PageSize)
		p.stats.Mem += cost
		m.tick(p, cost)
		t.started = true
	}
}

// apply updates the machine for the action t stopped with on its
// processor.
func (m *Machine) apply(t *Thread, act action) {
	p := t.proc
	switch act.kind {
	case actPause:
		// Quantum expiry: the thread keeps its processor; schedule may
		// now advance other processors whose clocks are behind.
	case actExit:
		m.handleExit(p, t)
	case actBlock:
		if tr := m.cfg.Tracer; tr != nil {
			tr.Record(p.clock, p.id, t.ID, trace.KindBlock)
		}
		m.policy.OnBlock(t)
		t.state = StateBlocked
		t.proc = nil
		p.cur = nil
	case actPreempt, actYield:
		if tr := m.cfg.Tracer; tr != nil {
			tr.Record(p.clock, p.id, t.ID, trace.KindPreempt)
		}
		next := act.next
		t.proc = nil
		p.cur = nil
		m.queueOp(p)
		m.becomeReady(t, p.id)
		if next != nil {
			// The paper's fork semantics: the processor immediately
			// executes the newly created child.
			m.assign(p, next)
		}
	default:
		panic("core: thread yielded without an action")
	}
}

func (m *Machine) handleExit(p *Proc, t *Thread) {
	at := p.clock
	t.state = StateExited
	t.done = true
	t.exitedSpan = t.span
	if t.exitedSpan > m.maxSpan {
		m.maxSpan = t.exitedSpan
	}
	m.policy.OnExit(t)
	m.queueOp(p)
	cost := m.mem.FreeStack(t.stackAddr, t.attr.StackSize)
	p.stats.Mem += cost
	m.tick(p, cost)
	if tr := m.cfg.Tracer; tr != nil {
		// Stamped when the thread stopped; Arg is the cycles the exit
		// then spent in the queue op and the stack release, so a
		// footprint replay frees the stack at At+Arg.
		tr.RecordArg(at, p.id, t.ID, trace.KindExit, int64(p.clock-at))
	}
	last := m.threads[len(m.threads)-1]
	last.slot = t.slot
	m.threads[t.slot] = last
	m.threads = m.threads[:len(m.threads)-1]
	t.proc = nil
	p.cur = nil
	if t.joiner != nil {
		m.becomeReady(t.joiner, p.id)
	}
	m.release(t)
}

// becomeReady re-enters t into the policy's ready structure at the
// current virtual time of processor pid.
func (m *Machine) becomeReady(t *Thread, pid int) {
	if tr := m.cfg.Tracer; tr != nil && t.state == StateBlocked {
		at := vtime.Time(0)
		if pid >= 0 {
			at = m.procs[pid].clock
		}
		tr.Record(at, pid, t.ID, trace.KindWake)
	}
	t.state = StateReady
	m.policy.OnReady(t, pid)
	at := vtime.Time(0)
	if pid >= 0 {
		at = m.procs[pid].clock
	}
	m.readyAt.push(at)
}

// queueOp charges one ready-queue operation to p at its current clock.
// For global-queue policies it additionally models contention on the
// single scheduler lock (the serialization the paper identifies as the
// scalability limit of its scheduler).
func (m *Machine) queueOp(p *Proc) {
	if m.batch > 1 {
		// Two-level mode: an outgoing fork/exit/preempt is a lock-free
		// push onto this processor's Q_in. The thread is made visible to
		// the policy's ready structure immediately (the pass drains Q_in
		// before refilling, so no later-dispatched thread could have
		// overtaken it); the per-entry move cost is charged to the next
		// scheduler pass via qinPending.
		p.stats.Sched += m.cm.SchedLocalOp
		m.tick(p, m.cm.SchedLocalOp)
		m.qinPending++
		return
	}
	if m.sharded != nil {
		// Sharded mode: the operation lands in this processor's own
		// shard — a short critical section contending only with other
		// operations on the same shard.
		m.shardLockOp(p, p.id)
		return
	}
	p.stats.Sched += m.cm.SchedLockOp
	m.tick(p, m.cm.SchedLockOp)
	if m.policy.Global() {
		m.schedLockWait(p, m.schedLock)
	}
}

// shardLockOp charges one critical section on shard's lock to p: the
// operation cost plus contention with other same-shard operations in the
// window.
func (m *Machine) shardLockOp(p *Proc, shard int) {
	p.stats.Sched += m.cm.SchedShardLockOp
	m.tick(p, m.cm.SchedShardLockOp)
	m.schedLockWait(p, m.shardLocks[shard%len(m.shardLocks)])
}

// schedLockWait charges p's wait for scheduler lock l (the global lock
// or one shard's) as lock-wait time. Shard lock waits feed the same
// sched.lock.wait instrument as the global lock, so the contention
// experiments compare like for like.
func (m *Machine) schedLockWait(p *Proc, l *contention) {
	if wait := l.wait(p.clock); wait > 0 {
		p.stats.LockWait += wait
		m.tick(p, wait)
		m.ins.schedLockWait.Observe(int64(wait))
	}
	m.prune(l)
}

// chargeSteal settles the cost of the sharded policy's most recent Next:
// each victim shard examined against the steal window costs one probe
// (published-minimum read plus bound check, no lock), and a cross-shard
// dispatch additionally pays the victim shard's lock critical section.
// Own-shard dispatches were already charged by queueOp and cost nothing
// extra here.
func (m *Machine) chargeSteal(p *Proc, t *Thread) {
	victim, probes := m.sharded.TakeSteal()
	if probes > 0 {
		d := vtime.Duration(probes) * m.cm.SchedStealProbe
		p.stats.Sched += d
		m.tick(p, d)
	}
	if victim < 0 {
		return
	}
	m.shardLockOp(p, victim)
	if tr := m.cfg.Tracer; tr != nil {
		tr.RecordArg(p.clock, p.id, t.ID, trace.KindSteal, int64(victim))
	}
}

// memLockWait charges thread t's wait for memory lock l as memory
// time: the heap allocator's lock for a heap operation, or the
// kernel's address-space lock for a kernel memory call (fresh stack or
// heap growth).
func (m *Machine) memLockWait(t *Thread, l *contention) {
	if wait := l.wait(t.proc.clock); wait > 0 {
		m.chargeMem(t, wait)
	}
	m.prune(l)
}

// prune drops l's windows that no processor can reach any more, once
// l holds more than 2^14 of them.
func (m *Machine) prune(l *contention) {
	if l.size() > 1<<14 {
		l.prune(m.minClock())
	}
}

// minClock is the smallest processor clock; contention windows older
// than this cannot receive further operations.
func (m *Machine) minClock() vtime.Time {
	lo := m.procs[0].clock
	for _, p := range m.procs[1:] {
		lo = min(lo, p.clock)
	}
	return lo
}

// tick advances p's clock by d.
func (m *Machine) tick(p *Proc, d vtime.Duration) { p.clock += vtime.Time(d) }

// liftClock raises p's clock to at (never backwards).
func (m *Machine) liftClock(p *Proc, at vtime.Time) { p.clock = at }

// newThread takes a record from the free list (a fresh one when it is
// empty) for a new thread.
func (m *Machine) newThread(attr Attr, body Body) *Thread {
	CheckPriority(attr.Priority)
	m.nextID++
	if attr.StackSize <= 0 {
		attr.StackSize = m.cfg.DefaultStack
	}
	s := (*simState)(m.free.Pop())
	if s == nil {
		s = &simState{m: m}
		s.hdr.simState = s
	}
	t := &s.hdr
	t.ID, t.Priority = m.nextID, attr.Priority
	s.body, s.attr = body, attr
	s.refs = 2 // lifecycle holders: the exiting thread and the joiner
	if attr.Detached {
		s.refs = 1
	}
	return t
}

// release drops one lifecycle reference on t and recycles its record
// once both holders are done: the exiting thread after its last trace
// emit (handleExit), the joiner after its exitedSpan read (Join). The
// root and never-joined records keep a reference and are not pooled.
// This is native's rule (internal/native/lifecycle.go).
func (m *Machine) release(t *Thread) {
	if t.refs--; t.refs > 0 {
		return
	}
	s := t.simState
	s.reset()
	m.free.Push((*freeRec)(s))
}

// admit registers a new live thread.
func (m *Machine) admit(t *Thread) {
	m.created++
	t.slot = len(m.threads)
	m.threads = append(m.threads, t)
	m.peakLive = max(m.peakLive, len(m.threads))
}

func (m *Machine) recordPanic(t *Thread, r any) {
	if m.err == nil {
		m.err = fmt.Errorf("core: panic in %s: %v\n%s", t.Name(), r, debug.Stack())
	}
}

// deadlockError describes an all-blocked state.
func (m *Machine) deadlockError() error {
	var names []string
	for _, t := range m.threads {
		names = append(names, fmt.Sprintf("%s(%s)", t.Name(), t.state))
	}
	sort.Strings(names)
	return fmt.Errorf("core: deadlock: %d live threads, none runnable: %s",
		len(names), strings.Join(names, ", "))
}

// makespan is the maximum virtual clock across processors.
func (m *Machine) makespan() vtime.Time {
	var max vtime.Time
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// charge helpers: every clock advance lands in exactly one stats bucket,
// so idle time can be derived as makespan minus the bucket sum.

func (m *Machine) chargeWork(t *Thread, d vtime.Duration) {
	p := t.proc
	p.stats.Work += d
	m.tick(p, d)
	t.span += d
	t.sinceYield += d
}

func (m *Machine) chargeOps(t *Thread, d vtime.Duration) {
	p := t.proc
	p.stats.ThreadOps += d
	m.tick(p, d)
	t.span += d
	t.sinceYield += d
}

func (m *Machine) chargeMem(t *Thread, d vtime.Duration) {
	p := t.proc
	p.stats.Mem += d
	m.tick(p, d)
	t.span += d
	t.sinceYield += d
}
