package harness_test

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"spthreads/internal/harness"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/small.golden from the current implementation")

const goldenPath = "testdata/small.golden"

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abldummy", "ablk", "ablloc", "ablsched", "ablws",
		"bound-audit", "contention", "contention-sharded",
		"fig1", "fig10", "fig11", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"scale", "space",
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

// readGolden splits the golden file into per-experiment outputs: each
// section opens with a "== <id>" line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	sections := make(map[string]string)
	var id string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok {
			id = strings.TrimSuffix(h, "\n")
			continue
		}
		sections[id] += line
	}
	return sections
}

// TestExperimentsRunSmall runs every experiment at -scale small -procs
// 2,8 and compares its output byte for byte with testdata/small.golden.
// Every experiment runs in virtual time, so any change to a simulated
// cost, a scheduling decision or a printed column shows here.
//
// Regenerate (only when an output change is intended and understood):
//
//	go test ./internal/harness -run TestExperimentsRunSmall -update-golden
func TestExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	opt := harness.Options{Scale: "small", Procs: []int{2, 8}}
	exps := harness.Experiments()
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t)
		if len(want) != len(exps) {
			t.Errorf("golden has %d experiments, the registry %d", len(want), len(exps))
		}
	}
	got := make([]string, len(exps))
	t.Cleanup(func() {
		if !*updateGolden || t.Failed() {
			return
		}
		var buf bytes.Buffer
		for i, e := range exps {
			if got[i] == "" {
				t.Errorf("%s did not run; -update-golden rewrites the whole file, so run every experiment", e.ID)
				return
			}
			buf.WriteString("== " + e.ID + "\n" + got[i])
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	})
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			got[i] = buf.String()
			if *updateGolden {
				return
			}
			if w, ok := want[e.ID]; !ok {
				t.Errorf("%s missing from %s", e.ID, goldenPath)
			} else if got[i] != w {
				t.Errorf("%s output diverges from %s; if intended, rerun with -update-golden and explain the change.\ngot:\n%s\nwant:\n%s",
					e.ID, goldenPath, got[i], w)
			}
		})
	}
}
