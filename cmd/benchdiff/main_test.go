package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldBench = `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1000000, "total_hwm_bytes": 5000000, "speedup": 3.5},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`

// TestNoRegression: small improvements and identical runs pass.
func TestNoRegression(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 990000, "total_hwm_bytes": 5000000, "speedup": 3.6},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "time_cycles") {
		t.Errorf("diff output missing changed metric:\n%s", out.String())
	}
}

// TestRegressionFails: time growing past the threshold exits 1 and
// names the regression.
func TestRegressionFails(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1300000, "total_hwm_bytes": 5000000, "speedup": 3.5},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION marker:\n%s", out.String())
	}
}

// TestSpeedupDirection: speedup shrinking is the regression, not
// growing.
func TestSpeedupDirection(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1000000, "total_hwm_bytes": 5000000, "speedup": 2.0},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (speedup fell 43%%)\nstdout: %s", code, out.String())
	}
}

// TestZeroThresholdReportsOnly: without -threshold the tool never
// fails, it only reports.
func TestZeroThresholdReportsOnly(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 9000000, "total_hwm_bytes": 5000000, "speedup": 0.5}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 without threshold\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("output missing unmatched-run note:\n%s", out.String())
	}
}

// TestExperimentMismatchExits2: comparing different experiments is a
// usage error.
func TestExperimentMismatchExits2(t *testing.T) {
	other := `{"experiment": "fig9", "runs": [{"policy": "adf"}]}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", other)}, &out, &errb)
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestUsage: wrong arity and unreadable files exit 2.
func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errb); code != 2 {
		t.Fatalf("run(missing) = %d, want 2", code)
	}
}

// TestLockWaitMetric: the scheduler-lock wait histogram sum from the
// metrics snapshot is compared, -metric restricts the diff to it, and
// batch sizes key separate runs.
func TestLockWaitMetric(t *testing.T) {
	oldC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 1, "time_cycles": 1000,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": 50000}}}},
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 64, "time_cycles": 900,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 10, "sum": 1000}}}}
	]}`
	newC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 1, "time_cycles": 1000,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": 50000}}}},
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 64, "time_cycles": 2500,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 50, "sum": 9000}}}}
	]}`
	// Restricted to sched.lock.wait: the batch=64 row's 9x growth fails;
	// time_cycles' growth is ignored under -metric.
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", oldC), writeJSON(t, "new.json", newC)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (lock wait grew 9x)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "sched.lock.wait") {
		t.Errorf("output missing sched.lock.wait metric:\n%s", out.String())
	}
	if strings.Contains(out.String(), "time_cycles") {
		t.Errorf("-metric sched.lock.wait still compared time_cycles:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "|b64") {
		t.Errorf("run key missing batch component:\n%s", out.String())
	}
}

// TestMetricFlagUnknownName: a bogus -metric name is a usage error that
// lists the known metrics.
func TestMetricFlagUnknownName(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-metric", "bogus",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "sched.lock.wait") {
		t.Errorf("error does not list known metrics:\n%s", errb.String())
	}
}

// TestZeroToNonzeroLockWait: a metric going from zero (uncontended) to
// nonzero is a regression at any threshold.
func TestZeroToNonzeroLockWait(t *testing.T) {
	oldC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "batch": 4,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 0, "sum": 0}}}}
	]}`
	newC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "batch": 4,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 5, "sum": 800}}}}
	]}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", oldC), writeJSON(t, "new.json", newC)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (0 -> 800)\nstdout: %s", code, out.String())
	}
}

// TestAnalysisMetricsCompared: analysis sub-metrics participate in the
// diff.
func TestAnalysisMetricsCompared(t *testing.T) {
	oldA := `{"experiment": "bound-audit", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "analysis": {"work_cycles": 1000, "depth_cycles": 100, "serial_space_bytes": 500, "peak_bytes": 600}}
	]}`
	newA := `{"experiment": "bound-audit", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "analysis": {"work_cycles": 1000, "depth_cycles": 100, "serial_space_bytes": 500, "peak_bytes": 900}}
	]}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "20",
		writeJSON(t, "old.json", oldA), writeJSON(t, "new.json", newA)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (peak grew 50%%)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "analysis.peak_bytes") {
		t.Errorf("output missing analysis metric:\n%s", out.String())
	}
}

// TestNativeRunsNotGated: a native-backend row blowing past the
// threshold is reported but does not fail the diff; a sim row in the
// same file still gates.
func TestNativeRunsNotGated(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 10.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 12.0, "time_cycles": 1000000}
  ]
}`
	// Native wall clock 3x slower, and even the sim row's host wall
	// clock moved: neither is a gate (wall_ms is report-only).
	newOK := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 30.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 30.0, "time_cycles": 1000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newOK)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (native 3x slower is not a gate)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("output missing the reported-not-gated marker:\n%s", out.String())
	}

	// The sim row's virtual time regressing still fails.
	newBad := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 10.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 12.0, "time_cycles": 2000000}
  ]
}`
	out.Reset()
	errb.Reset()
	code = run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newBad)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (sim rows still gate)\nstdout: %s", code, out.String())
	}
}

// TestBackendInKey: rows differing only in backend are distinct runs.
func TestBackendInKey(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [{"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "time_cycles": 1000000}]
}`
	newB := `{
  "experiment": "backends",
  "runs": [{"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 5.0}]
}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newB)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("backend-mismatched rows matched each other:\n%s", out.String())
	}
}

// obsBench builds a native-obs style file with tracer-off/on row pairs;
// pct is the on-row overhead percentage.
func obsBench(pct float64) string {
	return fmt.Sprintf(`{
  "experiment": "native-obs",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 100},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 105,
     "tracer": true, "trace_events": 65000, "overhead_pct": %g}
  ]
}`, pct)
}

// TestMaxCeilingGatesNativeRows: -max applies to native rows the
// relative threshold exempts; tracer-on and tracer-off rows are
// distinct keys (no collision).
func TestMaxCeilingGatesNativeRows(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-max", "overhead_pct=10",
		writeJSON(t, "old.json", obsBench(4.5)), writeJSON(t, "new.json", obsBench(6.0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (6%% under a 10%% ceiling)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Errorf("tracer rows collided or went unmatched:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "overhead_pct=10",
		writeJSON(t, "old.json", obsBench(4.5)), writeJSON(t, "new.json", obsBench(17.2))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (17.2%% over a 10%% ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "EXCEEDED") || !strings.Contains(out.String(), "overhead_pct") {
		t.Errorf("ceiling violation not named:\n%s", out.String())
	}
}

// TestMaxOnlyChecksRowsWithMetric: a ceiling on overhead_pct ignores
// tracer-off rows (no overhead value) and other experiments entirely.
func TestMaxOnlyChecksRowsWithMetric(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-max", "overhead_pct=0.001",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (no rows carry overhead_pct)\nstdout: %s", code, out.String())
	}
}

// TestMaxParseErrors: malformed or unknown -max entries exit 2.
func TestMaxParseErrors(t *testing.T) {
	for _, bad := range []string{"overhead_pct", "nope=10", "overhead_pct=abc"} {
		var out, errb bytes.Buffer
		code := run([]string{"-max", bad,
			writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
		if code != 2 {
			t.Errorf("-max %q: run = %d, want 2\nstderr: %s", bad, code, errb.String())
		}
	}
}

// TestOverheadPctReportOnlyRelative: overhead_pct growing between two
// files never trips the relative threshold (it is host noise); only
// -max gates it.
func TestOverheadPctReportOnlyRelative(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", obsBench(2.0)), writeJSON(t, "new.json", obsBench(8.0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (overhead_pct relative delta is report-only)\nstdout: %s", code, out.String())
	}
}

// tracedBench builds a native-obs style file whose traced arm carries
// trace_dropped.
func tracedBench(dropped float64) string {
	return fmt.Sprintf(`{
  "experiment": "native-obs",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "dtree", "backend": "native", "wall_ms": 600},
    {"policy": "adf", "procs": 4, "bench": "dtree", "backend": "native", "wall_ms": 620,
     "tracer": true, "trace_events": 190000, "trace_dropped": %g, "overhead_pct": 3.3}
  ]
}`, dropped)
}

// TestTraceDroppedZeroCeiling: a traced row going from zero drops to
// any drops fails -max trace_dropped=0, and -max (unlike the relative
// threshold) applies to native rows.
func TestTraceDroppedZeroCeiling(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-max", "trace_dropped=0",
		writeJSON(t, "old.json", tracedBench(0)), writeJSON(t, "new.json", tracedBench(0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 with zero drops\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "trace_dropped=0",
		writeJSON(t, "old.json", tracedBench(0)), writeJSON(t, "new.json", tracedBench(283))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (283 drops over a 0 ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "trace_dropped") || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("drop violation not named:\n%s", out.String())
	}
}

// auditBench builds a contention style file: a timing row followed by
// an audit row of the same configuration, as the committed contention
// baselines hold them.
func auditBench(cycles float64) string {
	return fmt.Sprintf(`{
  "experiment": "contention",
  "runs": [
    {"bench": "barneshut", "policy": "adf", "procs": 64, "batch": 1, "time_cycles": %g, "speedup": 20},
    {"bench": "barneshut", "policy": "adf", "procs": 64, "batch": 1,
     "analysis": {"work_cycles": 1000, "depth_cycles": 100, "serial_space_bytes": 500, "peak_bytes": 600}}
  ]
}`, cycles)
}

// TestAuditRowKeepsTimingRowGated: an audit row does not hide the
// timing row it shares a configuration with, so tripling that row's
// time still fails the gate.
func TestAuditRowKeepsTimingRowGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-metric", "time_cycles,speedup",
		writeJSON(t, "old.json", auditBench(1e6)), writeJSON(t, "new.json", auditBench(3e6))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (time_cycles tripled)\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "barneshut|adf|p64|b1 ") {
		t.Errorf("timing row not compared under its own key:\n%s", out.String())
	}
}

// TestDuplicateKeyExits2: two runs with one key in a file are a usage
// error naming the key, not a silent overwrite.
func TestDuplicateKeyExits2(t *testing.T) {
	dup := `{"experiment": "fig5", "runs": [
	  {"policy": "adf", "procs": 4, "time_cycles": 1000000},
	  {"policy": "adf", "procs": 4, "time_cycles": 3000000}
	]}`
	for _, files := range [][2]string{{dup, oldBench}, {oldBench, dup}} {
		var out, errb bytes.Buffer
		code := run([]string{writeJSON(t, "old.json", files[0]),
			writeJSON(t, "new.json", files[1])}, &out, &errb)
		if code != 2 {
			t.Fatalf("run = %d, want 2\nstdout: %s", code, out.String())
		}
		if !strings.Contains(errb.String(), "|adf|p4") {
			t.Errorf("duplicate key not named:\n%s", errb.String())
		}
	}
}

// TestCommittedBaselinesHaveUniqueKeys: every committed BENCH_*.json
// at the repository root is a valid gate baseline.
func TestCommittedBaselinesHaveUniqueKeys(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baselines found (%v)", err)
	}
	for _, f := range files {
		var out, errb bytes.Buffer
		if code := run([]string{f, f}, &out, &errb); code != 0 {
			t.Errorf("%s against itself: run = %d\nstderr: %s", f, code, errb.String())
		}
	}
}

// shardBench builds a contention-sharded file: a global batched row,
// two sharded sim arms distinguished only by steal window, and a native
// sharded row carrying the lock-wait percentage.
func shardBench(lockWait float64, pct float64) string {
	return fmt.Sprintf(`{
  "experiment": "contention-sharded",
  "runs": [
    {"policy": "adf", "procs": 256, "bench": "matmul", "batch": 64, "time_cycles": 2000000, "speedup": 20,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 900, "sum": 800000}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 1,
     "time_cycles": 1900000, "speedup": 21,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": %g}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 256,
     "time_cycles": 1800000, "speedup": 22,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 90, "sum": 90000}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 0,
     "backend": "native", "wall_ms": 120, "lock_wait_vs_global_pct": %g}
  ]
}`, lockWait, pct)
}

// TestShardRowsDistinctKeys: the K arms of the sharded sweep differ
// only in steal window; the run key must keep them (and the global
// baseline and the native row) from colliding.
func TestShardRowsDistinctKeys(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 25))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Errorf("sharded rows collided or went unmatched:\n%s", out.String())
	}
}

// TestShardLockWaitGated: sched.lock.wait growth on a sharded sim row
// trips the relative threshold like any other sim row.
func TestShardLockWaitGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(200000, 25))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (lock wait doubled)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "shard|w1") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("sharded lock-wait regression not keyed/named:\n%s", out.String())
	}
}

// TestLockWaitVsGlobalCeiling: the native lock-wait ratio is report-only
// relatively (host-dependent) but gated by -max, mirroring the overhead
// percentages; 100 means "no worse than the global store".
func TestLockWaitVsGlobalCeiling(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 95))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (relative pct change is report-only)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "lock_wait_vs_global_pct=100",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 140))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (140%% over a 100%% ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "lock_wait_vs_global_pct") || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("ceiling violation not named:\n%s", out.String())
	}
}

// nativeWallBench builds a native wall-clock file: two rows of
// different benches, each with its median wall time over repeat runs.
func nativeWallBench(matmulMS, fftMS float64, repeat int) string {
	return fmt.Sprintf(`{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": %g, "repeat": %d},
    {"policy": "adf", "procs": 4, "bench": "fft", "backend": "native", "wall_ms": %g, "repeat": %d}
  ]
}`, matmulMS, repeat, fftMS, repeat)
}

// TestWallMSDefaultNotGated: without naming wall_ms in -metric, even a
// repeat>=9 native wall-clock blowup stays report-only — default
// all-metric diffs are often cross-host comparisons.
func TestWallMSDefaultNotGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", nativeWallBench(100, 90, 9)),
		writeJSON(t, "new.json", nativeWallBench(300, 280, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (wall_ms not explicitly selected)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("output missing the reported-not-gated marker:\n%s", out.String())
	}
}

// TestWallMSExplicitGateOnNativeRows: -metric wall_ms on a repeated
// same-host pair is a real budget — a native row past the threshold
// fails the diff despite the usual native exemption.
func TestWallMSExplicitGateOnNativeRows(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", nativeWallBench(100, 90, 9)),
		writeJSON(t, "new.json", nativeWallBench(100, 250, 9))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (fft wall grew 178%% past a 50%% budget)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "fft|") {
		t.Errorf("regression not keyed to the fft row:\n%s", out.String())
	}

	// Within budget: passes.
	out.Reset()
	errb.Reset()
	code = run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", nativeWallBench(100, 90, 9)),
		writeJSON(t, "new.json", nativeWallBench(110, 100, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (10%% drift under a 50%% budget)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestWallMSGateNeedsRepeats: the explicit wall gate only arms when
// both rows' medians cover at least 9 repetitions — single-shot wall
// times are too noisy to gate even same-host.
func TestWallMSGateNeedsRepeats(t *testing.T) {
	for _, tc := range []struct{ oldRep, newRep int }{{1, 9}, {9, 1}, {3, 3}} {
		var out, errb bytes.Buffer
		code := run([]string{"-threshold", "50", "-metric", "wall_ms",
			writeJSON(t, "old.json", nativeWallBench(100, 90, tc.oldRep)),
			writeJSON(t, "new.json", nativeWallBench(100, 250, tc.newRep))}, &out, &errb)
		if code != 0 {
			t.Errorf("repeat %d->%d: run = %d, want 0 (below the repeat floor)\nstdout: %s",
				tc.oldRep, tc.newRep, code, out.String())
		}
	}
}

// TestWallMSZeroToNonzero: a row whose wall clock appears from zero
// (an old sim-style row without wall_ms) must not register an
// infinite regression — absence, not zero, is the baseline state.
func TestWallMSZeroToNonzero(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "repeat": 9}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", oldB),
		writeJSON(t, "new.json", nativeWallBench(100, 90, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (old row has no wall_ms to compare)\nstdout: %s", code, out.String())
	}
}

// TestWallMSMissingPair: a row with no old-file counterpart is reported
// as unmatched, never gated.
func TestWallMSMissingPair(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 100, "repeat": 9}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", oldB),
		writeJSON(t, "new.json", nativeWallBench(100, 250, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (fft row unmatched)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("unmatched fft row not reported:\n%s", out.String())
	}
}
