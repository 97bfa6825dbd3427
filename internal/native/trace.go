package native

import (
	"time"

	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// tracer is the native backend's event recorder: one lock-free ring per
// worker plus one shared "machine" ring for events fired off-worker
// (timer wakes, the coordinator's root bookkeeping). Workers append to
// their own ring with no shared state — one atomic cursor bump and a
// slot store, zero allocations — so tracing stays cheap enough to leave
// on. Timestamps are wall-clock nanoseconds since the run started; the
// rings are merged, time-sorted, into the attached trace.Recorder after
// every producer has quiesced, where the stream declares UnitWallNS so
// pttrace/ptanalyze scale it correctly.
//
// A nil *tracer is valid and records nothing, mirroring the package's
// nil-registry metrics convention.
type tracer struct {
	start time.Time
	rings []*trace.Ring // len procs+1; index procs is the machine ring
	procs int
}

// newTracer sizes each of the procs+1 rings at 1/procs of the
// recorder's capacity (with a floor so tiny recorders still capture
// something per worker). Splitting by procs rather than procs+1 leaves
// ~2x headroom over an even event distribution: per-worker event counts
// skew with the schedule, and the machine ring (which would claim an
// equal share) only ever sees a handful of events.
func newTracer(rec *trace.Recorder, procs int) *tracer {
	if rec == nil {
		return nil
	}
	per := rec.Cap() / procs
	if per < 4096 {
		per = 4096
	}
	return &tracer{rings: trace.NewRings(procs+1, per), procs: procs}
}

// record appends one event to the ring of the worker it happened on
// (proc < 0 or out of range routes to the machine ring). Safe from any
// goroutine; allocation-free.
func (tr *tracer) record(proc int, thread int64, kind trace.Kind, arg int64) {
	tr.recordAt(tr.now(), proc, thread, kind, arg)
}

// now returns the event timestamp for a deferred recordAt (0 on a nil
// tracer). Scheduler hot paths capture the time while still holding
// b.mu — so timestamps preserve the causal scheduling order the lock
// serializes — and issue the ring write after unlocking, keeping the
// tracer's store (and its cache misses) off the contended lock's
// critical path.
func (tr *tracer) now() vtime.Time {
	if tr == nil {
		return 0
	}
	return vtime.Time(time.Since(tr.start).Nanoseconds())
}

// recordAt is record with a caller-captured timestamp. Deferred writes
// may land in a ring out of timestamp order; Ingest detects and sorts
// scrambled rings before merging.
func (tr *tracer) recordAt(at vtime.Time, proc int, thread int64, kind trace.Kind, arg int64) {
	if tr == nil {
		return
	}
	i := proc
	if i < 0 || i >= tr.procs {
		i = tr.procs
	}
	tr.rings[i].Record(at, proc, thread, kind, arg)
}

// finish merges all rings into rec, time-sorted, declaring the wall-ns
// time base. Call only after workers and thread coroutines have
// quiesced — their deferred (post-unlock) ring writes happen before
// their worker's WaitGroup Done — and hold b.mu to order any straggling timer
// appends (timers record only while !b.done, under b.mu).
func (tr *tracer) finish(rec *trace.Recorder) {
	if tr == nil {
		return
	}
	rec.Ingest(trace.UnitWallNS, tr.rings...)
}
