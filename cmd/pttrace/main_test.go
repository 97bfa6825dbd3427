package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spthreads/internal/analyze"
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
// offline — the full record-export-reload-reconstruct loop.
func TestRoundTripAnalyze(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-policy", "adf", "-procs", "2", "-depth", "3", "-width", "40",
		"-events", events, "-analyze"}, &out, &errb)
	if code != 0 {
		t.Fatalf("live run = %d\nstderr: %s", code, errb.String())
	}
	live := out.String()
	if !strings.Contains(live, "run DAG analysis:") || !strings.Contains(live, "work W") {
		t.Errorf("live -analyze output missing report:\n%s", live)
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", events, "-analyze", "-width", "40"}, &out, &errb)
	if code != 0 {
		t.Fatalf("offline run = %d\nstderr: %s", code, errb.String())
	}
	offline := out.String()
	for _, want := range []string{"run DAG analysis:", "work W", "depth D", "serial S1", "critical path"} {
		if !strings.Contains(offline, want) {
			t.Errorf("offline -analyze output missing %q:\n%s", want, offline)
		}
	}
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
