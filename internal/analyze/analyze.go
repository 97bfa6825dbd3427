// Package analyze reconstructs the fork-join run DAG from a recorded
// trace event stream and reduces it to the paper's model quantities:
// work W (total cycles executed across all threads), depth D (the
// longest chain of sequential dependencies), parallelism W/D, and
// serial space S₁ (the footprint of a 1-processor depth-first
// execution, obtained by replaying the recorded allocations in serial
// depth-first order through the memsim machinery). It also extracts
// the concrete critical path of the run and attributes its wall-clock
// duration to categories — compute, ready-queue wait, lock contention,
// quota preemption, dummy-thread throttling — and audits the measured
// peak footprint against the paper's S₁ + c·p·D bound.
//
// The analyzer needs no access to the live machine: everything is
// derived from trace.Event records. Fork edges come from KindCreate
// (Arg = parent id), join edges from KindJoin (Arg = target id),
// per-thread execution intervals from dispatch/preempt/block/exit, and
// space from alloc/free/stack-alloc/exit payloads.
package analyze

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"spthreads/internal/spaceprof"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Options configures an analysis. The zero value works for any trace;
// the fields refine labeling and space accounting.
type Options struct {
	// Policy labels the report (the trace itself does not name the
	// scheduling policy that produced it).
	Policy string
	// Procs overrides the processor count (0 infers max proc id + 1
	// from the events).
	Procs int
	// Quota records the policy's memory quota K in bytes, for the
	// report only (0: unknown or no quota).
	Quota int64
	// DefaultStack is the machine's default thread stack size, which
	// sizes the replayed stack cache (0 infers the root thread's stack
	// size, which the machine allocates with default attributes).
	DefaultStack int64
	// PeakHeap, PeakStack and Peak carry externally measured footprint
	// high-water marks (e.g. from the live run's memsim stats). When 0
	// they are reconstructed by replaying the trace's memory events in
	// record order, which matches the machine's accounting exactly as
	// long as no events were dropped.
	PeakHeap, PeakStack, Peak int64
	// SampleEvery coalesces the serial-space curve to one retained
	// sample per interval (0 keeps every observation).
	SampleEvery vtime.Duration
}

// Report is the analysis result. All durations are ticks of TimeUnit —
// virtual cycles (167 per modeled microsecond) for sim traces, wall
// nanoseconds for native traces. The duration field names keep their
// historical `_cycles` suffix for wire compatibility; TimeUnit says how
// to read them.
type Report struct {
	Policy        string         `json:"policy,omitempty"`
	TimeUnit      trace.TimeUnit `json:"time_unit"`
	Procs         int            `json:"procs"`
	Threads       int            `json:"threads"`
	DroppedEvents int64          `json:"dropped_events"`
	Makespan      vtime.Duration `json:"makespan_cycles"`
	Work          vtime.Duration `json:"work_cycles"`
	Depth         vtime.Duration `json:"depth_cycles"`
	Parallelism   float64        `json:"parallelism"`

	// Space audit: S₁ from the serial depth-first replay, the measured
	// (or reconstructed) peaks, and the fit against S₁ + c·p·D.
	SerialSpace int64 `json:"serial_space_bytes"`
	PeakHeap    int64 `json:"peak_heap_bytes"`
	PeakStack   int64 `json:"peak_stack_bytes"`
	Peak        int64 `json:"peak_bytes"`
	// Slack is max(0, Peak-SerialSpace): the space attributable to
	// parallel execution, the quantity the paper bounds by c·p·D.
	Slack int64 `json:"slack_bytes"`
	// C is the space-bound constant in bytes per processor-microsecond
	// of depth. Analyze fits it to this run (the smallest c satisfying
	// the bound); ApplyFit substitutes an externally fitted value.
	C       float64 `json:"c_bytes_per_proc_us"`
	Bound   int64   `json:"bound_bytes"`
	BoundOK bool    `json:"bound_ok"`

	QuotaBytes    int64 `json:"quota_bytes,omitempty"`
	QuotaPreempts int64 `json:"quota_preempts"`
	DummyForks    int64 `json:"dummy_forks"`

	Path PathBreakdown `json:"critical_path"`

	// SerialCurve is the serial replay's footprint over serial virtual
	// time, downsampled — the S₁ curve a 1-processor depth-first run
	// would trace out.
	SerialCurve []spaceprof.Sample `json:"serial_curve,omitempty"`
}

// FitC returns the smallest constant c that satisfies
// Peak ≤ SerialSpace + c·Procs·Depth for this run (0 when the run has
// no parallel slack or no depth to normalize by).
func (r *Report) FitC() float64 {
	den := float64(r.Procs) * r.depthUS()
	if den <= 0 || r.Slack <= 0 {
		return 0
	}
	return float64(r.Slack) / den
}

// depthUS is the depth in real microseconds of the report's time base,
// so the space-bound constant c stays in B/(proc·µs) for both sim and
// native traces.
func (r *Report) depthUS() float64 { return r.TimeUnit.Microseconds(int64(r.Depth)) }

// ApplyFit re-evaluates the space bound under an externally fitted
// constant — typically the maximum per-run c across an audit's runs of
// the same policy.
func (r *Report) ApplyFit(c float64) {
	r.C = c
	r.Bound = r.SerialSpace + int64(c*float64(r.Procs)*r.depthUS()+0.5)
	r.BoundOK = r.Peak <= r.Bound
}

// errEmpty refuses a trace with no events: there is nothing to analyze,
// and treating it as a zero-work run would mask truncated or misrouted
// trace files.
var errEmpty = errors.New("analyze: empty trace (no events)")

// Analyze reconstructs the run DAG from the recorder's events and
// computes the full report. It errors on an empty trace.
func Analyze(rec *trace.Recorder, opt Options) (*Report, error) {
	events := rec.Events()
	if len(events) == 0 {
		return nil, errEmpty
	}
	a := newAnalysis(events)

	procs := opt.Procs
	if procs <= 0 {
		procs = a.maxProc + 1
	}
	if procs <= 0 {
		procs = 1
	}

	rep := &Report{
		Policy:        opt.Policy,
		TimeUnit:      rec.Unit(),
		Procs:         procs,
		Threads:       len(a.threads),
		DroppedEvents: rec.Dropped(),
		Makespan:      vtime.Duration(a.horizon),
		QuotaBytes:    opt.Quota,
		QuotaPreempts: a.quotaPreempts,
		DummyForks:    a.dummyForks,
	}

	for _, id := range a.order {
		for _, s := range a.threads[id].segs {
			rep.Work += vtime.Duration(s.to - s.from)
		}
	}
	for _, id := range a.order {
		if d := a.absStart(id) + a.relDepth(id); d > rep.Depth {
			rep.Depth = d
		}
	}
	if rep.Depth > 0 {
		rep.Parallelism = float64(rep.Work) / float64(rep.Depth)
	}

	rep.Path = a.criticalPath()

	defStack := opt.DefaultStack
	if defStack <= 0 {
		defStack = rootStack(events)
	}
	var curve *spaceprof.Profiler
	rep.SerialSpace, curve = a.serialSpace(defStack, opt.SampleEvery)
	rep.SerialCurve = curve.Downsample(64)

	rep.PeakHeap, rep.PeakStack, rep.Peak = opt.PeakHeap, opt.PeakStack, opt.Peak
	if rep.Peak == 0 {
		rep.PeakHeap, rep.PeakStack, rep.Peak = footprint(events, rec.Unit(), defStack, nil)
	}
	if rep.Slack = rep.Peak - rep.SerialSpace; rep.Slack < 0 {
		rep.Slack = 0
	}
	rep.ApplyFit(rep.FitC())
	return rep, nil
}

// opKind classifies a thread-order operation replayed by the depth and
// space computations.
type opKind uint8

const (
	opFork opKind = iota
	opJoin
	opAlloc
	opFree
)

type op struct {
	kind  opKind
	at    vtime.Time
	other int64 // child id (fork) or join target id
	bytes int64 // alloc/free request size
}

// segClose records how an execution segment ended.
type segClose uint8

const (
	closeOpen segClose = iota // still running at the trace horizon
	closePreempt
	closeBlock
	closeExit
)

// seg is one interval during which the thread occupied a processor,
// annotated with the payload the critical-path classifier needs.
type seg struct {
	from, to vtime.Time
	proc     int
	close    segClose
	// quotaClose marks a preemption caused by quota exhaustion (the
	// quota-exhausted event fires at the same timestamp as the close).
	quotaClose bool
	// hasDummy marks a dummy-fork recorded within the segment: the
	// preemption closing it is throttling, not an ordinary fork.
	hasDummy bool
	// joinTarget is the target of the first join recorded in the
	// segment (0: none). A segment opening right after a block whose
	// first operation is a join means the block was a join wait.
	joinTarget int64
	// lockWait is the blocked-cycles payload of the first lock-acquire
	// in the segment (-1: none).
	lockWait int64
}

type threadRec struct {
	id       int64
	parent   int64
	stack    int64
	createAt vtime.Time
	exitAt   vtime.Time
	exited   bool
	segs     []seg
	// cum[i] is the execution accumulated before segs[i]; cum has
	// len(segs)+1 entries, the last being the thread's total.
	cum   []vtime.Duration
	ops   []op
	wakes []vtime.Time

	openSeg  *seg
	hasOpen  bool
	firstIn  bool // next op-ish event is the first within the open segment
	quotaPnd bool
}

type analysis struct {
	events  []trace.Event
	threads map[int64]*threadRec
	order   []int64 // thread ids, ascending, for deterministic iteration
	horizon vtime.Time
	maxProc int

	quotaPreempts int64
	dummyForks    int64
	lastExit      int64 // thread of the last exit event in record order

	depthMemo   map[int64]vtime.Duration
	depthActive map[int64]bool
	startMemo   map[int64]vtime.Duration
	forkOff     map[int64]vtime.Duration // child id -> parent depth at fork
}

func newAnalysis(events []trace.Event) *analysis {
	a := &analysis{
		events:      events,
		threads:     make(map[int64]*threadRec),
		maxProc:     -1,
		lastExit:    -1,
		depthMemo:   make(map[int64]vtime.Duration),
		depthActive: make(map[int64]bool),
		startMemo:   make(map[int64]vtime.Duration),
		forkOff:     make(map[int64]vtime.Duration),
	}
	get := func(id int64, at vtime.Time) *threadRec {
		r := a.threads[id]
		if r == nil {
			// First sighting; if the create event was dropped, adopt
			// the first event's time as the creation time.
			r = &threadRec{id: id, createAt: at, stack: -1}
			a.threads[id] = r
		}
		return r
	}
	for _, e := range events {
		if e.At > a.horizon {
			a.horizon = e.At
		}
		if e.Proc > a.maxProc {
			a.maxProc = e.Proc
		}
		if e.Kind == trace.KindBatchRefill || e.Kind == trace.KindRunEnd {
			continue // machine-level events: no thread to attribute
		}
		r := get(e.Thread, e.At)
		switch e.Kind {
		case trace.KindCreate:
			r.createAt = e.At
			r.parent = e.Arg
			if p := a.threads[e.Arg]; p != nil && e.Arg != 0 {
				p.ops = append(p.ops, op{kind: opFork, at: e.At, other: e.Thread})
			}
		case trace.KindStackAlloc:
			r.stack = e.Arg
		case trace.KindDispatch:
			if r.hasOpen {
				// A dispatch while a segment is open means the close
				// event was dropped; close at the new dispatch.
				a.closeSeg(r, e.At, closeOpen)
			}
			r.segs = append(r.segs, seg{from: e.At, proc: e.Proc, lockWait: -1})
			r.openSeg = &r.segs[len(r.segs)-1]
			r.hasOpen = true
			r.firstIn = true
			r.quotaPnd = false
		case trace.KindPreempt:
			a.closeSeg(r, e.At, closePreempt)
		case trace.KindBlock:
			a.closeSeg(r, e.At, closeBlock)
		case trace.KindExit:
			a.closeSeg(r, e.At, closeExit)
			r.exitAt = e.At
			r.exited = true
			a.lastExit = e.Thread
		case trace.KindWake:
			r.wakes = append(r.wakes, e.At)
		case trace.KindAlloc:
			r.ops = append(r.ops, op{kind: opAlloc, at: e.At, bytes: e.Arg})
			r.firstIn = false
		case trace.KindFree:
			r.ops = append(r.ops, op{kind: opFree, at: e.At, bytes: e.Arg})
			r.firstIn = false
		case trace.KindJoin:
			r.ops = append(r.ops, op{kind: opJoin, at: e.At, other: e.Arg})
			if r.hasOpen && r.openSeg.joinTarget == 0 && r.firstIn {
				r.openSeg.joinTarget = e.Arg
			}
			r.firstIn = false
		case trace.KindQuotaExhausted:
			a.quotaPreempts++
			r.quotaPnd = true
		case trace.KindDummyFork:
			a.dummyForks += e.Arg
			if r.hasOpen {
				r.openSeg.hasDummy = true
			}
		case trace.KindLockAcquire:
			if r.hasOpen && r.openSeg.lockWait < 0 {
				r.openSeg.lockWait = e.Arg
			}
			r.firstIn = false
		}
	}
	for _, r := range a.threads {
		if r.hasOpen {
			a.closeSeg(r, a.horizon, closeOpen)
		}
		if r.stack < 0 {
			r.stack = 0
		}
		sort.SliceStable(r.segs, func(i, j int) bool { return r.segs[i].from < r.segs[j].from })
		r.cum = make([]vtime.Duration, len(r.segs)+1)
		for i, s := range r.segs {
			r.cum[i+1] = r.cum[i] + vtime.Duration(s.to-s.from)
		}
		sort.Slice(r.wakes, func(i, j int) bool { return r.wakes[i] < r.wakes[j] })
		a.order = append(a.order, r.id)
	}
	sort.Slice(a.order, func(i, j int) bool { return a.order[i] < a.order[j] })
	return a
}

func (a *analysis) closeSeg(r *threadRec, at vtime.Time, how segClose) {
	if !r.hasOpen {
		return
	}
	s := r.openSeg
	s.to = at
	if s.to < s.from {
		s.to = s.from
	}
	s.close = how
	if how == closePreempt && r.quotaPnd {
		s.quotaClose = true
	}
	r.quotaPnd = false
	r.hasOpen = false
	r.openSeg = nil
}

// execUpTo returns how much execution the thread had accumulated by
// absolute time t.
func (r *threadRec) execUpTo(t vtime.Time) vtime.Duration {
	i := sort.Search(len(r.segs), func(i int) bool { return r.segs[i].from >= t })
	total := r.cum[i]
	if i > 0 && r.segs[i-1].to > t {
		total -= vtime.Duration(r.segs[i-1].to - t)
	}
	return total
}

// execBetween returns the thread's execution within [a, b).
func (r *threadRec) execBetween(a, b vtime.Time) vtime.Duration {
	if b <= a {
		return 0
	}
	return r.execUpTo(b) - r.execUpTo(a)
}

// relDepth computes the thread's depth contribution relative to its
// own creation: its execution, stretched by join dependencies — a join
// cannot complete before the joined child's own (recursive) depth,
// measured from the fork point, has elapsed.
func (a *analysis) relDepth(id int64) vtime.Duration {
	if d, ok := a.depthMemo[id]; ok {
		return d
	}
	r := a.threads[id]
	if r == nil || a.depthActive[id] {
		// Unknown thread (dropped events) or a malformed cyclic trace.
		return 0
	}
	a.depthActive[id] = true
	var at vtime.Duration
	cur := r.createAt
	childStart := make(map[int64]vtime.Duration)
	for _, o := range r.ops {
		if o.kind == opAlloc || o.kind == opFree {
			continue
		}
		at += r.execBetween(cur, o.at)
		cur = o.at
		switch o.kind {
		case opFork:
			childStart[o.other] = at
			a.forkOff[o.other] = at
		case opJoin:
			cs, ok := childStart[o.other]
			if !ok {
				cs = at // target forked elsewhere (or its fork was dropped)
			}
			if ce := cs + a.relDepth(o.other); ce > at {
				at = ce
			}
		}
	}
	end := r.exitAt
	if !r.exited {
		end = a.horizon
	}
	at += r.execBetween(cur, end)
	delete(a.depthActive, id)
	a.depthMemo[id] = at
	return at
}

// absStart returns the thread's absolute depth coordinate: the depth
// its parent had reached at the fork, chained up to the root.
func (a *analysis) absStart(id int64) vtime.Duration {
	if d, ok := a.startMemo[id]; ok {
		return d
	}
	r := a.threads[id]
	var d vtime.Duration
	if r != nil && r.parent != 0 && a.threads[r.parent] != nil {
		a.startMemo[id] = 0  // cycle guard for malformed parent chains
		a.relDepth(r.parent) // ensure the parent's fork offsets are computed
		d = a.absStart(r.parent) + a.forkOff[id]
	}
	a.startMemo[id] = d
	return d
}

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) {
	if r.Policy != "" {
		fmt.Fprintf(w, "policy %s: ", r.Policy)
	}
	fmt.Fprintf(w, "%d procs, %d threads", r.Procs, r.Threads)
	if r.DroppedEvents > 0 {
		fmt.Fprintf(w, " (%d events dropped: figures are lower bounds)", r.DroppedEvents)
	}
	fmt.Fprintln(w)
	dur := func(d vtime.Duration) string { return r.TimeUnit.FormatDuration(int64(d)) }
	fmt.Fprintf(w, "model:  work W %s   depth D %s   parallelism W/D %.1f   makespan %s\n",
		dur(r.Work), dur(r.Depth), r.Parallelism, dur(r.Makespan))
	fmt.Fprintf(w, "space:  serial S1 %s   peak %s (heap %s, stack %s)   parallel slack %s\n",
		formatBytes(r.SerialSpace), formatBytes(r.Peak),
		formatBytes(r.PeakHeap), formatBytes(r.PeakStack), formatBytes(r.Slack))
	verdict := "VIOLATED"
	if r.BoundOK {
		verdict = "ok"
	}
	fmt.Fprintf(w, "bound:  S1 + c*p*D = %s with c = %.3f B/(proc*us)  -> %s\n",
		formatBytes(r.Bound), r.C, verdict)
	if r.QuotaBytes > 0 || r.QuotaPreempts > 0 || r.DummyForks > 0 {
		fmt.Fprintf(w, "quota:  %d quota preemptions, %d dummy threads forked", r.QuotaPreempts, r.DummyForks)
		if r.QuotaBytes > 0 {
			fmt.Fprintf(w, " (K = %s)", formatBytes(r.QuotaBytes))
		}
		fmt.Fprintln(w)
	}
	r.Path.writeText(w, r.Makespan, r.TimeUnit)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
