package harness_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"spthreads/internal/harness"
	"spthreads/internal/jsonschema"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abldummy", "ablk", "ablloc", "ablsched", "ablws", "backends",
		"bound-audit", "contention", "contention-sharded",
		"fig1", "fig10", "fig11", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"native-obs", "scale", "space",
	}
	got := harness.Experiments()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.What == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
	if _, ok := harness.Find("fig7"); !ok {
		t.Error("Find(fig7) failed")
	}
	if _, ok := harness.Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// TestJSONEmittersMatchSchema runs every experiment's JSON emitter at
// small scale and validates the emitted document against the checked-in
// bench-output contract (testdata/bench.schema.json) — the same check
// CI's benchcheck applies to ptbench -json output.
func TestJSONEmittersMatchSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("emitters rerun experiments; skipped in -short mode")
	}
	raw, err := os.ReadFile("../../testdata/bench.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := jsonschema.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	opt := harness.Options{Scale: "small", Procs: []int{1, 2}}
	emitters := 0
	for _, e := range harness.Experiments() {
		if e.JSON == nil {
			continue
		}
		emitters++
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.JSON(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Experiment != e.ID {
				t.Errorf("result experiment = %q, want %q", res.Experiment, e.ID)
			}
			var buf bytes.Buffer
			if err := res.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if err := schema.ValidateJSON(buf.Bytes()); err != nil {
				t.Errorf("emitted JSON violates schema: %v", err)
			}
		})
	}
	if emitters < 5 {
		t.Errorf("only %d JSON emitters registered, want >= 5 (fig1, fig5, fig9, space, bound-audit)", emitters)
	}
}

// TestExperimentsRunSmall executes every experiment at small scale and
// sanity-checks the output (each must produce a non-trivial table).
func TestExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	// Restrict sweeps to two processor counts to keep the suite quick.
	opt := harness.Options{Scale: "small", Procs: []int{2, 8}}
	for _, e := range harness.Experiments() {
		if e.ID == "scale" {
			continue // same code path as fig8
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Errorf("%s: suspiciously short output:\n%s", e.ID, out)
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Errorf("%s: output contains NaN/Inf:\n%s", e.ID, out)
			}
		})
	}
}
