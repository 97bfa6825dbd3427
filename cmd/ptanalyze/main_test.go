package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spthreads/internal/jsonschema"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

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

// TestTextReport: the default output names every headline quantity the
// tool exists to report.
func TestTextReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-policy", "adf", writeTrace(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"policy adf", "work W", "depth D", "parallelism W/D", "serial S1", "peak", "bound:", "critical path"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestJSONMatchesSchema: -json output validates against the checked-in
// report contract, for a virtual-time trace and for a native wall-unit
// trace.
func TestJSONMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/analyze.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := jsonschema.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		path string
		unit trace.TimeUnit
	}{
		{writeTrace(t), trace.UnitCycles},
		{writeNativeTrace(t), trace.UnitWallNS},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-json", "-policy", "adf", "-procs", "2", in.path}, &out, &errb)
		if code != 0 {
			t.Fatalf("run = %d\nstderr: %s", code, errb.String())
		}
		if err := schema.ValidateJSON(out.Bytes()); err != nil {
			t.Errorf("-json output violates the schema: %v\n%s", err, out.String())
		}
		if want := fmt.Sprintf(`"time_unit": %q`, in.unit); !strings.Contains(out.String(), want) {
			t.Errorf("report missing %s:\n%s", want, out.String())
		}
	}
}

// TestOutFile: -o writes the report to a file.
func TestOutFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-o", outPath, writeTrace(t)}, &out, &errb); code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "work_cycles") {
		t.Errorf("report file missing content: %s", raw)
	}
}

// TestEmptyTraceExits2: empty and truncated inputs are usage errors.
func TestEmptyTraceExits2(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{empty}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "empty trace") || !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing diagnostics: %s", errb.String())
	}

	trunc := filepath.Join(t.TempDir(), "trunc.jsonl")
	if err := os.WriteFile(trunc, []byte(`{"ts":0,"pro`), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{trunc}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestUsageAndMissingFile: no args is usage (2); a nonexistent path is
// an I/O failure (1).
func TestUsageAndMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/trace.jsonl"}, &out, &errb); code != 1 {
		t.Fatalf("run(missing) = %d, want 1", code)
	}
}
