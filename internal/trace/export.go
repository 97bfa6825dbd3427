package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"spthreads/internal/vtime"
)

// This file exports recorded traces in machine-readable formats:
//
//   - Chrome trace-event JSON (the "JSON Object Format" with a
//     traceEvents array), loadable directly in Perfetto and
//     chrome://tracing. Thread occupancy becomes complete ("X") slices
//     on one track per virtual processor; lifecycle and memory events
//     become instant ("i") events; attached counter curves (e.g. the
//     space profiler's) become counter ("C") events.
//   - JSONL: one JSON object per event, for streaming consumers, led by
//     a header object declaring the time base.
//
// Chrome timestamps are real microseconds (the trace-event format's ts
// unit), scaled from the recorder's declared TimeUnit — virtual cycles
// for the simulator, wall nanoseconds for the native backend; the
// tick-exact value is preserved in each event's args.

// CounterSample is one point of a named counter curve attached to a
// Chrome export — for example the space profiler's heap/stack series.
// Series maps series name to value; map keys marshal sorted, keeping
// the output deterministic.
type CounterSample struct {
	At     vtime.Time
	Name   string
	Series map[string]int64
}

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// machinePID is the pid used for every track (one simulated machine per
// trace).
const machinePID = 0

// WriteChrome writes the trace as Chrome trace-event JSON. procs sizes
// the per-processor tracks (events on proc -1 — off-processor wakes
// and the root create — land on an extra "machine" track). counters may
// be nil.
func (r *Recorder) WriteChrome(w io.Writer, procs int, counters []CounterSample) error {
	machineTID := procs // one past the last processor track
	tid := func(proc int) int {
		if proc < 0 {
			return machineTID
		}
		return proc
	}
	// Timestamps scale to real microseconds from whichever base the
	// recorder declares (virtual cycles or wall nanoseconds).
	us := func(t vtime.Time) float64 { return r.unit.Microseconds(int64(t)) }
	tsKey, blockedKey := "cycles", "blocked_cycles"
	if r.unit == UnitWallNS {
		tsKey, blockedKey = "ns", "blocked_ns"
	}

	var evs []chromeEvent
	// Track-name metadata so Perfetto labels the rows.
	for p := 0; p < procs; p++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Phase: "M", PID: machinePID, TID: p,
			Args: map[string]any{"name": fmt.Sprintf("proc %d", p)},
		})
	}
	evs = append(evs, chromeEvent{
		Name: "thread_name", Phase: "M", PID: machinePID, TID: machineTID,
		Args: map[string]any{"name": "machine"},
	})

	// Occupancy slices.
	for _, s := range r.Segments() {
		d := us(s.To) - us(s.From)
		evs = append(evs, chromeEvent{
			Name:  fmt.Sprintf("thread %d", s.Thread),
			Cat:   "exec",
			Phase: "X",
			TS:    us(s.From),
			Dur:   &d,
			PID:   machinePID,
			TID:   s.Proc,
			Args:  map[string]any{"thread": s.Thread},
		})
	}

	// Lifecycle and payload events as thread-scoped instants.
	for _, e := range r.events {
		if e.Kind == KindDispatch {
			continue // already represented by the slices
		}
		args := map[string]any{"thread": e.Thread, tsKey: int64(e.At)}
		switch e.Kind {
		case KindAlloc, KindFree, KindQuotaExhausted, KindStackAlloc:
			args["bytes"] = e.Arg
		case KindDummyFork:
			args["dummies"] = e.Arg
		case KindLockAcquire:
			args[blockedKey] = e.Arg
		case KindBatchRefill:
			args["moved"] = e.Arg
		case KindRunEnd:
			args["status"] = e.Arg
		case KindCreate:
			args["parent"] = e.Arg
		case KindJoin:
			args["target"] = e.Arg
		}
		evs = append(evs, chromeEvent{
			Name:  e.Kind.String(),
			Cat:   category(e.Kind),
			Phase: "i",
			TS:    us(e.At),
			PID:   machinePID,
			TID:   tid(e.Proc),
			Scope: "t",
			Args:  args,
		})
	}

	// Counter curves.
	for _, c := range counters {
		series := make(map[string]any, len(c.Series))
		for k, v := range c.Series {
			series[k] = v
		}
		evs = append(evs, chromeEvent{
			Name:  c.Name,
			Phase: "C",
			TS:    us(c.At),
			PID:   machinePID,
			TID:   machineTID,
			Args:  series,
		})
	}

	// The trace-event format does not require sorted timestamps, but
	// sorted output diffs cleanly and loads faster; the sort is stable
	// so record order breaks ties deterministically.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Phase == "M" != (evs[j].Phase == "M") {
			return evs[i].Phase == "M" // metadata first
		}
		return evs[i].TS < evs[j].TS
	})

	out := chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"clock":    r.unit.clockLabel(),
			"timeUnit": r.unit.String(),
			"dropped":  fmt.Sprintf("%d", r.dropped),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// category groups kinds for the Chrome trace's cat field.
func category(k Kind) string {
	switch k {
	case KindAlloc, KindFree, KindQuotaExhausted, KindDummyFork, KindStackAlloc:
		return "memory"
	case KindLockAcquire:
		return "sync"
	default:
		return "sched"
	}
}

// jsonlEvent is the JSONL wire form of one event.
type jsonlEvent struct {
	TS     int64  `json:"ts"`
	Proc   int    `json:"proc"`
	Thread int64  `json:"thread"`
	Kind   string `json:"kind"`
	Arg    int64  `json:"arg,omitempty"`
}

// jsonlHeader is the optional first line of a JSONL stream, declaring
// the time base of every ts that follows. Streams without it (written
// before the native backend existed) are virtual cycles.
type jsonlHeader struct {
	Unit string `json:"unit"`
}

// WriteJSONL writes a header line declaring the time base, then one
// JSON object per recorded event in record order. ts is in the
// recorder's unit: virtual cycles or wall nanoseconds.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Unit: r.unit.String()}); err != nil {
		return err
	}
	for _, e := range r.events {
		je := jsonlEvent{
			TS:     int64(e.At),
			Proc:   e.Proc,
			Thread: e.Thread,
			Kind:   e.Kind.String(),
			Arg:    e.Arg,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
