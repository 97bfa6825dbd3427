package analyze_test

import (
	"fmt"
	"strings"
	"testing"

	"spthreads/internal/analyze"
	"spthreads/internal/matmul"
	"spthreads/pthread"
)

// traced runs prog under cfg with a tracer of the given capacity.
func traced(t *testing.T, cfg pthread.Config, capacity int, prog func(*pthread.T)) (*pthread.TraceRecorder, pthread.Stats) {
	t.Helper()
	rec := pthread.NewTraceRecorder(capacity)
	cfg.Tracer = rec
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return rec, st
}

// TestSerialSpacePredictsMeasurement: the trace's serial depth-first
// replay predicts the footprint high-water mark of an actual
// 1-processor depth-first execution (ADF with the quota disabled)
// exactly, stacks included.
func TestSerialSpacePredictsMeasurement(t *testing.T) {
	rec, st := traced(t, pthread.Config{
		Procs:        1,
		Policy:       pthread.PolicyADF,
		MemQuota:     1 << 30,
		DefaultStack: pthread.SmallStackSize,
	}, 0, matmul.Fine(matmul.Config{N: 128, Leaf: 32}))
	rep, err := analyze.Analyze(rec, analyze.Options{DefaultStack: pthread.SmallStackSize})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SerialSpace != st.TotalHWM {
		t.Errorf("replayed S1 = %d, measured p=1 footprint = %d", rep.SerialSpace, st.TotalHWM)
	}
}

// TestSpanScalesWithDepth (property-flavored): deeper trees have longer
// depth D, and D grows far slower than work W.
func TestSpanScalesWithDepth(t *testing.T) {
	build := func(depth int) *analyze.Report {
		var tree func(tt *pthread.T, d int)
		tree = func(tt *pthread.T, d int) {
			tt.Charge(200000) // dwarf the per-thread overheads
			if d == 0 {
				return
			}
			tt.Par(
				func(ct *pthread.T) { tree(ct, d-1) },
				func(ct *pthread.T) { tree(ct, d-1) },
			)
		}
		rec, _ := traced(t, pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, 0, func(tt *pthread.T) {
			tree(tt, depth)
		})
		rep, err := analyze.Analyze(rec, analyze.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	shallow, deep := build(3), build(6)
	if deep.Depth <= shallow.Depth {
		t.Errorf("D(depth 6) = %v <= D(depth 3) = %v", deep.Depth, shallow.Depth)
	}
	if deep.Work <= 4*shallow.Work {
		t.Errorf("work should grow ~8x: %v vs %v", deep.Work, shallow.Work)
	}
	// But depth grows only linearly in tree depth, far slower than work.
	if float64(deep.Depth) > 3*float64(shallow.Depth) {
		t.Errorf("depth grew too fast: %v vs %v", deep.Depth, shallow.Depth)
	}
}

// TestFootprintRefusesDroppedEvents: a trace that overflowed its
// recorder would replay a footprint that stops short, so the replay
// fails and names the drop count instead of under-reporting.
func TestFootprintRefusesDroppedEvents(t *testing.T) {
	rec, _ := traced(t, pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, 16,
		matmul.Fine(matmul.Config{N: 64, Leaf: 32}))
	if rec.Dropped() == 0 {
		t.Fatal("a 16-event recorder dropped nothing")
	}
	_, err := analyze.Footprint(rec, 0)
	if err == nil {
		t.Fatal("Footprint accepted a truncated trace")
	}
	if want := fmt.Sprintf("dropped %d events", rec.Dropped()); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the drop count (%q)", err, want)
	}
}
