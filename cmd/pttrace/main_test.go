package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

// TestOfflineEmptyTraceExits2: -in with a zero-event trace file must
// exit 2 with usage, for every combination of view flags (this used to
// be unreachable; the offline path must never panic on an empty
// recorder).
func TestOfflineEmptyTraceExits2(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-analyze"},
		{"-events", filepath.Join(t.TempDir(), "out.jsonl")},
		{"-out", filepath.Join(t.TempDir(), "out.json")},
		{},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-in", empty}, extra...)
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2\nstderr: %s", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "empty trace") {
			t.Errorf("run(%v) stderr missing empty-trace diagnostic: %s", args, errb.String())
		}
		if !strings.Contains(errb.String(), "usage:") {
			t.Errorf("run(%v) stderr missing usage: %s", args, errb.String())
		}
	}
}

// TestOfflineTruncatedTraceExits2: a trace file cut mid-line (a killed
// run, a partial copy) is a usage error, not a silent partial analysis.
func TestOfflineTruncatedTraceExits2(t *testing.T) {
	trunc := filepath.Join(t.TempDir(), "trunc.jsonl")
	content := `{"ts":0,"proc":0,"thread":1,"kind":"dispatch"}` + "\n" + `{"ts":10,"proc":0,"thr`
	if err := os.WriteFile(trunc, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-in", trunc, "-analyze"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "malformed or truncated") {
		t.Errorf("stderr missing truncation diagnostic: %s", errb.String())
	}
}

// TestOfflineMissingFileExits1: a -in path that cannot be opened is an
// I/O failure (1); an undefined flag is a usage error (2).
func TestOfflineMissingFileExits1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-in", "/nonexistent/trace.jsonl", "-analyze"}, &out, &errb); code != 1 {
		t.Fatalf("run(missing) = %d, want 1\nstderr: %s", code, errb.String())
	}
	if code := run([]string{"-json"}, &out, &errb); code != 2 {
		t.Fatalf("run(-json) = %d, want 2", code)
	}
}

// TestOfflineSpaceAndDotMatchLive: -space and -dot are replays of the
// trace, so a sim run's exported JSONL gives back byte-identical files.
func TestOfflineSpaceAndDotMatchLive(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "fifo", "-procs", "3", "-depth", "4", "-width", "40",
		"-events", p("events.jsonl"), "-space", p("live.csv"), "-dot", p("live.dot")}, &out, &errb); code != 0 {
		t.Fatalf("live run = %d\nstderr: %s", code, errb.String())
	}
	if code := run([]string{"-in", p("events.jsonl"), "-width", "40",
		"-space", p("in.csv"), "-dot", p("in.dot")}, &out, &errb); code != 0 {
		t.Fatalf("offline run = %d\nstderr: %s", code, errb.String())
	}
	for _, pair := range [][2]string{{"live.csv", "in.csv"}, {"live.dot", "in.dot"}} {
		live, err := os.ReadFile(p(pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		in, err := os.ReadFile(p(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(live) == 0 || !bytes.Equal(live, in) {
			t.Errorf("%s (%d bytes) and %s (%d bytes) differ", pair[0], len(live), pair[1], len(in))
		}
	}
}

// TestSpaceRefusesDroppedEvents: a trace that overflowed its recorder
// cannot give a footprint curve; -space fails and names the drop count.
func TestSpaceRefusesDroppedEvents(t *testing.T) {
	rec := pthread.NewTraceRecorder(16)
	if _, err := pthread.Run(pthread.Config{Procs: 2, Tracer: rec}, func(t *pthread.T) {
		t.Par(func(*pthread.T) {}, func(*pthread.T) {}, func(*pthread.T) {})
	}); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	v := views{width: 40, space: filepath.Join(t.TempDir(), "s.csv"), opt: analyze.Options{Procs: 2}}
	if code := v.render(rec, &out, &errb); code == 0 {
		t.Fatal("-space on a truncated trace exited 0")
	}
	if want := fmt.Sprintf("dropped %d events", rec.Dropped()); !strings.Contains(errb.String(), want) {
		t.Errorf("stderr %q does not name the drop count (%q)", errb.String(), want)
	}
}

// TestUnknownPolicyExits2 preserves the live-mode usage contract.
func TestUnknownPolicyExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "warp"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestRoundTripAnalyze: a live run exported as JSONL re-analyzes
// offline — the full record-export-reload-reconstruct loop — to the
// same report: -in takes the trace's own processor count, not the live
// default -procs 4, so p and the fitted c agree with the live run.
func TestRoundTripAnalyze(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	events := p("events.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-policy", "adf", "-procs", "2", "-depth", "3", "-width", "40",
		"-events", events, "-analyze", "-report", p("live.json")}, &out, &errb)
	if code != 0 {
		t.Fatalf("live run = %d\nstderr: %s", code, errb.String())
	}
	live := out.String()
	if !strings.Contains(live, "run DAG analysis:") || !strings.Contains(live, "work W") {
		t.Errorf("live -analyze output missing report:\n%s", live)
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", events, "-policy", "adf", "-analyze", "-report", p("in.json"), "-width", "40"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline run = %d\nstderr: %s", code, errb.String())
	}
	offline := out.String()
	for _, want := range []string{"run DAG analysis:", "work W", "depth D", "serial S1", "critical path"} {
		if !strings.Contains(offline, want) {
			t.Errorf("offline -analyze output missing %q:\n%s", want, offline)
		}
	}

	liveRep, inRep := readReport(t, p("live.json")), readReport(t, p("in.json"))
	if liveRep.Procs != 2 || inRep.Procs != 2 {
		t.Errorf("procs: live %d, -in %d, want 2", liveRep.Procs, inRep.Procs)
	}
	for _, f := range []struct {
		name     string
		live, in any
	}{
		{"c_bytes_per_proc_us", liveRep.C, inRep.C},
		{"bound_bytes", liveRep.Bound, inRep.Bound},
		{"work_cycles", liveRep.Work, inRep.Work},
		{"depth_cycles", liveRep.Depth, inRep.Depth},
		{"serial_space_bytes", liveRep.SerialSpace, inRep.SerialSpace},
	} {
		if f.live != f.in {
			t.Errorf("%s: live %v, -in %v", f.name, f.live, f.in)
		}
	}

	// An explicit -procs still overrides the trace's count.
	if code := run([]string{"-in", events, "-procs", "3", "-report", p("p3.json")}, &out, &errb); code != 0 {
		t.Fatalf("offline -procs 3 = %d\nstderr: %s", code, errb.String())
	}
	if got := readReport(t, p("p3.json")).Procs; got != 3 {
		t.Errorf("-in -procs 3 reports %d procs", got)
	}
}

// TestOfflineTextReport: -in -analyze names every headline quantity the
// offline audit exists to report, under the policy label -policy gives.
func TestOfflineTextReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-in", writeTrace(t), "-policy", "adf", "-analyze"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"policy adf", "work W", "depth D", "parallelism W/D", "serial S1", "peak", "bound:", "critical path"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestReportOutFile: -report writes the report to its file, not to
// stdout, and the file holds the trace's numbers.
func TestReportOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-in", writeTrace(t), "-report", path}, &out, &errb); code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "work_cycles") {
		t.Errorf("-report printed the JSON report to stdout:\n%s", out.String())
	}
	if rep := readReport(t, path); rep.Threads != 2 || rep.Work <= 0 {
		t.Errorf("report file reads %d threads, work %d; want 2 threads and positive work", rep.Threads, rep.Work)
	}
}

// TestReportEmptyTraceExits2: with -report, an empty or a truncated -in
// trace is a usage error and leaves no report file behind.
func TestReportEmptyTraceExits2(t *testing.T) {
	dir := t.TempDir()
	empty, trunc := filepath.Join(dir, "empty.jsonl"), filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trunc, []byte(`{"ts":0,"pro`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{empty, trunc} {
		report := filepath.Join(dir, "report.json")
		var out, errb bytes.Buffer
		if code := run([]string{"-in", in, "-report", report}, &out, &errb); code != 2 {
			t.Errorf("run(-in %s) = %d, want 2\nstderr: %s", filepath.Base(in), code, errb.String())
		}
		if !strings.Contains(errb.String(), "usage:") {
			t.Errorf("run(-in %s) stderr missing usage: %s", filepath.Base(in), errb.String())
		}
		if _, err := os.Stat(report); !os.IsNotExist(err) {
			t.Errorf("run(-in %s) left a report file (stat: %v)", filepath.Base(in), err)
		}
	}
}

func readReport(t *testing.T, path string) *analyze.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep analyze.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &rep
}

// TestReportContract: the -report JSON is analyze.Report, field for
// field: it decodes with no unknown field and re-encodes to the same
// bytes. Every key a reader may rely on is present and within range,
// for a virtual-time trace and for a native wall-unit trace.
func TestReportContract(t *testing.T) {
	required := []string{"time_unit", "procs", "threads", "dropped_events", "makespan_cycles", "work_cycles",
		"depth_cycles", "parallelism", "serial_space_bytes", "peak_heap_bytes",
		"peak_stack_bytes", "peak_bytes", "slack_bytes", "c_bytes_per_proc_us",
		"bound_bytes", "bound_ok", "quota_preempts", "dummy_forks", "critical_path"}
	requiredPath := []string{"compute_cycles", "ready_cycles", "lock_cycles", "quota_cycles",
		"dummy_cycles", "blocked_cycles", "unattributed_cycles", "hops"}
	requiredSample := []string{"t_cycles", "heap_bytes", "stack_bytes", "live_threads"}
	missing := func(what string, v any, keys []string) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s missing %q", what, k)
			}
		}
	}
	for _, in := range []struct {
		path string
		unit trace.TimeUnit
	}{
		{writeTrace(t), trace.UnitCycles},
		{writeNativeTrace(t), trace.UnitWallNS},
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		var out, errb bytes.Buffer
		if code := run([]string{"-in", in.path, "-policy", "adf", "-procs", "2", "-report", path}, &out, &errb); code != 0 {
			t.Fatalf("run = %d\nstderr: %s", code, errb.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var rep analyze.Report
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s report does not decode as analyze.Report: %v\n%s", in.unit, err, raw)
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again.Bytes()) {
			t.Errorf("%s report does not round-trip:\n%s\nre-encoded:\n%s", in.unit, raw, again.Bytes())
		}

		// raw is byte for byte the typed report's encoding, so the
		// nested objects are checked through their types.
		missing("report", json.RawMessage(raw), required)
		missing("critical_path", rep.Path, requiredPath)
		for i, s := range rep.SerialCurve {
			missing(fmt.Sprintf("serial_curve[%d]", i), s, requiredSample)
		}
		if rep.TimeUnit != in.unit {
			t.Errorf("time_unit %q, want %q", rep.TimeUnit, in.unit)
		}
		if rep.Procs < 1 || rep.Threads < 0 || rep.DroppedEvents < 0 || rep.Makespan < 0 || rep.Work < 0 || rep.Depth < 0 {
			t.Errorf("%s report out of range: procs %d threads %d dropped %d makespan %d work %d depth %d",
				in.unit, rep.Procs, rep.Threads, rep.DroppedEvents, rep.Makespan, rep.Work, rep.Depth)
		}
	}
}

// writeTrace records a small fork-join trace and writes it as JSONL.
func writeTrace(t *testing.T) string {
	t.Helper()
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, 8192)
	rec.Record(0, 0, 1, trace.KindDispatch)
	rec.RecordArg(100, 0, 2, trace.KindCreate, 1)
	rec.RecordArg(100, 0, 2, trace.KindStackAlloc, 8192)
	rec.Record(100, 0, 1, trace.KindPreempt)
	rec.Record(100, 0, 2, trace.KindDispatch)
	rec.RecordArg(200, 0, 2, trace.KindAlloc, 4096)
	rec.RecordArg(400, 0, 2, trace.KindFree, 4096)
	rec.Record(500, 0, 2, trace.KindExit)
	rec.Record(500, 0, 1, trace.KindDispatch)
	rec.RecordArg(520, 0, 1, trace.KindJoin, 2)
	rec.Record(600, 0, 1, trace.KindExit)
	return writeJSONL(t, rec)
}

// writeNativeTrace records a fork tree with allocations on the native
// backend (wall-ns timestamps, per-worker rings merged at run end) and
// writes it as JSONL.
func writeNativeTrace(t *testing.T) string {
	t.Helper()
	rec := pthread.NewTraceRecorder(1 << 16)
	var tree func(*pthread.T, int)
	tree = func(t *pthread.T, depth int) {
		a := t.Malloc(32 << 10)
		t.Charge(1000)
		if depth > 0 {
			t.Par(func(t *pthread.T) { tree(t, depth-1) }, func(t *pthread.T) { tree(t, depth-1) })
		}
		t.Free(a)
	}
	cfg := pthread.Config{Backend: pthread.BackendNative, Procs: 2, Policy: pthread.PolicyADF, Tracer: rec}
	if _, err := pthread.Run(cfg, func(t *pthread.T) { tree(t, 6) }); err != nil {
		t.Fatal(err)
	}
	return writeJSONL(t, rec)
}

func writeJSONL(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNativeRoundTripWallUnits: a native run exports a wall-ns JSONL
// trace whose unit survives the reload — the offline analysis and the
// Chrome export must read nanoseconds, not cycles.
func TestNativeRoundTripWallUnits(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	chromeOut := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-backend", "native", "-policy", "adf", "-procs", "2", "-depth", "3",
		"-width", "40", "-events", events, "-out", chromeOut, "-analyze"}, &out, &errb)
	if code != 0 {
		t.Fatalf("native live run = %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "backend=native") {
		t.Errorf("live output missing backend tag:\n%s", out.String())
	}

	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(raw), "\n")
	if !strings.Contains(header, `"unit":"wall-ns"`) {
		t.Errorf("JSONL header = %q, want wall-ns unit", header)
	}
	chrome, err := os.ReadFile(chromeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chrome), `"timeUnit":"wall-ns"`) {
		t.Error("Chrome export missing wall-ns timeUnit metadata")
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", events, "-analyze", "-width", "40"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline reload = %d\nstderr: %s", code, errb.String())
	}
	offline := out.String()
	for _, want := range []string{"run DAG analysis:", "work W", "depth D", "critical path"} {
		if !strings.Contains(offline, want) {
			t.Errorf("offline analysis of native trace missing %q:\n%s", want, offline)
		}
	}
}

// TestNativeDot: the native backend draws its DAG and space curve from
// the trace like the sim does.
func TestNativeDot(t *testing.T) {
	dir := t.TempDir()
	dot, space := filepath.Join(dir, "d.dot"), filepath.Join(dir, "s.csv")
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "native", "-procs", "2", "-depth", "3", "-width", "40",
		"-dot", dot, "-space", space}, &out, &errb); code != 0 {
		t.Fatalf("native -dot = %d\nstderr: %s", code, errb.String())
	}
	g, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 3 is 15 threads, 14 forks and 14 joins.
	if nodes, edges := strings.Count(string(g), "[label="), strings.Count(string(g), " -> "); nodes != 15 || edges != 28 {
		t.Errorf("native DOT has %d nodes and %d edges, want 15 and 28:\n%s", nodes, edges, g)
	}
	csv, err := os.ReadFile(space)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines < 2 {
		t.Errorf("native space CSV has %d lines:\n%s", lines, csv)
	}
}

// TestUnknownBackendExits2 mirrors the policy-validation contract.
func TestUnknownBackendExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "qemu"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown backend "qemu"`) {
		t.Errorf("stderr missing diagnostic: %s", errb.String())
	}
}
