// Package trace records scheduler and memory events from a simulated
// run and renders them for inspection — per-processor Gantt charts,
// per-thread summaries, and machine-readable exports (Chrome trace-event
// JSON for Perfetto/chrome://tracing, and a JSONL stream). Tracing is
// off unless a Recorder is attached to the machine's configuration; it
// does not perturb virtual time.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"spthreads/internal/vtime"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. The first six are the scheduler lifecycle transitions;
// the rest carry the memory- and synchronization-system payloads the
// space-over-time analyses need.
const (
	KindCreate Kind = iota
	KindDispatch
	KindPreempt
	KindBlock
	KindWake
	// KindExit is stamped when the thread stops running; Arg is the
	// time the exit then spent before the thread's stack was released
	// (0 on native), so a footprint replay frees the stack at At+Arg.
	KindExit
	// KindAlloc and KindFree are simulated heap operations; Arg is the
	// request size in bytes.
	KindAlloc
	KindFree
	// KindQuotaExhausted marks an allocation draining the thread's ADF
	// memory quota to zero (the thread is preempted); Arg is the
	// allocation size that exhausted it.
	KindQuotaExhausted
	// KindDummyFork marks the runtime forking no-op dummy threads to
	// throttle a large allocation; Arg is the dummy count.
	KindDummyFork
	// KindLockAcquire marks a mutex acquisition; Arg is the virtual time
	// (cycles) the thread was blocked waiting, 0 for an uncontended
	// fast-path acquire.
	KindLockAcquire
	// KindJoin marks the completion of a join: the event's thread is the
	// joiner, Arg is the id of the joined (exited) thread. Together with
	// KindCreate's parent payload it makes the recorded event stream a
	// complete fork-join DAG — offline analyzers need no heuristics.
	KindJoin
	// KindStackAlloc marks the mapping of a thread's stack at creation;
	// Arg is the stack size in bytes. It lets space replays account
	// per-thread stacks exactly even when threads use non-default sizes.
	KindStackAlloc
	// KindBatchRefill marks the completion of one batched scheduler pass
	// (the two-level Q_in/R/Q_out scheme): Proc is the processor the pass
	// ran for, Arg is the number of threads moved into Q_outs. The event
	// carries no thread (Thread is 0) — per-thread analyzers must skip it.
	KindBatchRefill
	// KindRunEnd is the terminal machine-level event the native backend
	// emits exactly once per run: Arg is 0 for a clean finish, 1 when the
	// run died of detected deadlock, 2 when it died of a propagated
	// panic. Its presence distinguishes a complete trace from one
	// truncated by a hang or a kill; like KindBatchRefill it carries no
	// thread and per-thread analyzers must skip it.
	KindRunEnd
	// KindSteal marks a sharded-scheduler cross-shard dispatch: the
	// event's thread is the stolen thread, Proc is the thief processor,
	// and Arg is the victim shard index. It is emitted immediately before
	// the stolen thread's KindDispatch and only by sharded configurations,
	// so traces from global-store policies are unchanged.
	KindSteal
)

// RunEnd status codes (KindRunEnd's Arg payload).
const (
	RunEndClean    = 0
	RunEndDeadlock = 1
	RunEndPanic    = 2
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindBlock:
		return "block"
	case KindWake:
		return "wake"
	case KindExit:
		return "exit"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindQuotaExhausted:
		return "quota-exhausted"
	case KindDummyFork:
		return "dummy-fork"
	case KindLockAcquire:
		return "lock-acquire"
	case KindJoin:
		return "join"
	case KindStackAlloc:
		return "stack-alloc"
	case KindBatchRefill:
		return "batch-refill"
	case KindRunEnd:
		return "run-end"
	case KindSteal:
		return "steal"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At     vtime.Time
	Proc   int // processor involved, -1 if none
	Thread int64
	Kind   Kind
	// Arg is the kind-specific payload: bytes for alloc/free/quota and
	// stack-alloc events, dummy count for dummy-fork, blocked cycles for
	// lock-acquire, the parent thread id for create (0 for the root),
	// the joined thread id for join, 0 otherwise.
	Arg int64
}

// Recorder collects events up to a cap (oldest kept; a full recorder
// drops further events and counts them).
type Recorder struct {
	cap     int
	events  []Event
	dropped int64
	unit    TimeUnit
}

// NewRecorder creates a recorder holding up to capacity events
// (0 selects 1<<20).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{cap: capacity}
}

// Record appends an event without a payload. The simulated machine
// calls it serialized (one goroutine holds the machine at a time), so no
// locking is needed.
func (r *Recorder) Record(at vtime.Time, proc int, thread int64, kind Kind) {
	r.RecordArg(at, proc, thread, kind, 0)
}

// RecordArg appends an event carrying a kind-specific payload.
func (r *Recorder) RecordArg(at vtime.Time, proc int, thread int64, kind Kind, arg int64) {
	if len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{At: at, Proc: proc, Thread: thread, Kind: kind, Arg: arg})
}

// Events returns the recorded events in record order.
func (r *Recorder) Events() []Event { return r.events }

// Dropped reports how many events exceeded the capacity.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Cap returns the recorder's event capacity.
func (r *Recorder) Cap() int { return r.cap }

// Unit reports the time base of the recorded timestamps. The zero
// value is UnitCycles — every recorder fed by the simulator keeps it.
func (r *Recorder) Unit() TimeUnit { return r.unit }

// SetUnit declares the time base of the recorder's timestamps.
func (r *Recorder) SetUnit(u TimeUnit) { r.unit = u }

// Ingest merges events from per-worker rings into the recorder,
// time-sorted (stable, so same-timestamp events keep their ring-local
// order), sets the declared time base, and folds in ring drop counts.
// Events past the recorder's own cap are dropped and counted too. Call
// only after every producer has quiesced.
func (r *Recorder) Ingest(unit TimeUnit, rings ...*Ring) {
	r.unit = unit
	// Each ring is already time-ordered in the common case (one worker
	// records sequentially into its own ring), so a k-way merge costs
	// O(n·k) integer compares instead of a full O(n log n) sort — the
	// merge runs inside the traced run's wall time, so it is the
	// tracer-overhead hot spot. Rings written by concurrent producers
	// (the machine ring's timers) can be locally out of order; those are
	// sorted first, stably, preserving slot order among equal stamps.
	heads := make([][]Event, 0, len(rings))
	total := 0
	for _, g := range rings {
		if g == nil {
			continue
		}
		r.dropped += g.Dropped()
		evs := g.Events()
		if len(evs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) }) {
			slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		}
		heads = append(heads, evs)
		total += len(evs)
	}
	// Reserve the exact merged size up front: growing through append's
	// doubling would copy the event slice several times over, inside the
	// traced run's wall time.
	want := len(r.events) + total
	if want > r.cap {
		want = r.cap
	}
	if want > cap(r.events) {
		grown := make([]Event, len(r.events), want)
		copy(grown, r.events)
		r.events = grown
	}
	for ; total > 0; total-- {
		best := -1
		for i, h := range heads {
			if len(h) > 0 && (best < 0 || h[0].At < heads[best][0].At) {
				best = i
			}
		}
		e := heads[best][0]
		heads[best] = heads[best][1:]
		if len(r.events) >= r.cap {
			r.dropped++
			continue
		}
		r.events = append(r.events, e)
	}
}

// End returns the timestamp of the last recorded event (the trace's
// horizon), or 0 for an empty trace.
func (r *Recorder) End() vtime.Time {
	var end vtime.Time
	for _, e := range r.events {
		if e.At > end {
			end = e.At
		}
	}
	return end
}

// Segment is a half-open span [From, To) during which Thread occupied
// processor Proc.
type Segment struct {
	Proc     int
	Thread   int64
	From, To vtime.Time
}

// Segments reconstructs per-processor occupancy spans from the
// dispatch/preempt/block/exit events. Spans still open at the end of
// the trace are closed at the trace horizon. Both the Gantt renderer
// and the Chrome exporter build on this.
func (r *Recorder) Segments() []Segment {
	if len(r.events) == 0 {
		return nil
	}
	end := r.End()
	type open struct {
		thread int64
		from   vtime.Time
	}
	cur := make(map[int]*open)
	var segs []Segment
	for _, e := range r.events {
		switch e.Kind {
		case KindDispatch:
			if s := cur[e.Proc]; s != nil {
				segs = append(segs, Segment{Proc: e.Proc, Thread: s.thread, From: s.from, To: e.At})
			}
			cur[e.Proc] = &open{thread: e.Thread, from: e.At}
		case KindPreempt, KindBlock, KindExit:
			if s := cur[e.Proc]; s != nil && s.thread == e.Thread {
				segs = append(segs, Segment{Proc: e.Proc, Thread: s.thread, From: s.from, To: e.At})
				delete(cur, e.Proc)
			}
		}
	}
	// Deterministic close-out order for still-running spans.
	var openProcs []int
	for p := range cur {
		openProcs = append(openProcs, p)
	}
	sort.Ints(openProcs)
	for _, p := range openProcs {
		s := cur[p]
		segs = append(segs, Segment{Proc: p, Thread: s.thread, From: s.from, To: end})
	}
	return segs
}

// Gantt renders processor occupancy over time as text: one row per
// processor, one column per time bucket, showing the thread id (mod 62,
// base-62 encoded) that occupied the processor for the largest share of
// the bucket (ties broken by smallest thread id), '.' for a bucket the
// processor spent entirely idle.
func (r *Recorder) Gantt(procs int, width int) string {
	if width <= 0 {
		width = 80
	}
	if len(r.events) == 0 {
		return "(no events)\n"
	}
	end := r.End()
	if end == 0 {
		end = 1
	}
	bucket := float64(end) / float64(width)

	segsByProc := make(map[int][]Segment)
	for _, s := range r.Segments() {
		segsByProc[s.Proc] = append(segsByProc[s.Proc], s)
	}

	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b strings.Builder
	fmt.Fprintf(&b, "gantt: %d buckets of %s each\n", width, r.unit.FormatDuration(int64(bucket)))
	for p := 0; p < procs; p++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// occupancy[i] maps thread id -> duration occupied within bucket i.
		occupancy := make([]map[int64]float64, width)
		for _, s := range segsByProc[p] {
			from, to := float64(s.From), float64(s.To)
			lo := int(from / bucket)
			hi := int(to / bucket)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				bLo, bHi := float64(i)*bucket, float64(i+1)*bucket
				overlap := min(to, bHi) - max(from, bLo)
				if s.From == s.To && i == lo {
					// Zero-length spans (instantaneous dispatch+exit)
					// still claim an epsilon so the thread is visible.
					overlap = 1e-9
				}
				if overlap <= 0 {
					continue
				}
				if occupancy[i] == nil {
					occupancy[i] = make(map[int64]float64)
				}
				occupancy[i][s.Thread] += overlap
			}
		}
		for i, occ := range occupancy {
			var best int64 = -1
			var bestDur float64
			for id, d := range occ {
				if d > bestDur || (d == bestDur && (best == -1 || id < best)) {
					best, bestDur = id, d
				}
			}
			if best >= 0 {
				row[i] = glyphs[int(best)%len(glyphs)]
			}
		}
		fmt.Fprintf(&b, "p%-2d |%s|\n", p, row)
	}
	if r.dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped)\n", r.dropped)
	}
	return b.String()
}

// ThreadStats summarizes one thread's scheduling history.
type ThreadStats struct {
	Thread     int64
	Dispatches int
	Created    vtime.Time
	// ExitedAt is the exit timestamp; meaningful only when Exited.
	ExitedAt vtime.Time
	// Exited distinguishes threads that ran to completion within the
	// trace from ones still live (or whose exit was dropped) at its end.
	Exited bool
	// Lifetime is ExitedAt-Created for exited threads; for threads that
	// never exited it is the end-of-trace horizon minus Created (how
	// long the thread had been live when recording stopped).
	Lifetime vtime.Duration
}

// Summary aggregates per-thread statistics, sorted by thread id.
func (r *Recorder) Summary() []ThreadStats {
	end := r.End()
	m := make(map[int64]*ThreadStats)
	get := func(id int64) *ThreadStats {
		s := m[id]
		if s == nil {
			s = &ThreadStats{Thread: id}
			m[id] = s
		}
		return s
	}
	for _, e := range r.events {
		if e.Kind == KindBatchRefill || e.Kind == KindRunEnd {
			continue // machine-level events: carry no thread
		}
		s := get(e.Thread)
		switch e.Kind {
		case KindCreate:
			s.Created = e.At
		case KindDispatch:
			s.Dispatches++
		case KindExit:
			s.ExitedAt = e.At
			s.Exited = true
		}
	}
	out := make([]ThreadStats, 0, len(m))
	for _, s := range m {
		if s.Exited {
			s.Lifetime = vtime.Duration(s.ExitedAt - s.Created)
		} else {
			s.Lifetime = vtime.Duration(end - s.Created)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}
