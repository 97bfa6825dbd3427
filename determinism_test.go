package spthreads_test

// Determinism regression: a fixed small configuration must produce
// bit-identical virtual results — makespan, heap high-water mark, and
// peak live threads — on every run and on every commit. The expected
// values live in testdata/determinism.golden, generated from the seed
// implementation; any PR that accidentally perturbs the scheduling
// order (e.g. while "only" changing scheduler data structures) fails
// this test rather than silently shifting every figure.
//
// Regenerate (only when an order change is intended and understood):
//
//	go test -run TestDeterminismGolden -update-golden

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/determinism.golden from the current implementation")

const goldenPath = "testdata/determinism.golden"

// detCase is one golden configuration.
type detCase struct {
	name string
	cfg  pthread.Config
	prog func(*pthread.T)
}

// determinismCases is a small fig5/fig8-style configuration: the fine
// matrix multiply (Figure 5/7/8's workhorse) and the 64-thread FFT
// (Figure 10's load-balance case), each under every policy the paper
// studies plus the two baselines; then the remaining paper benchmarks
// (Barnes-Hut, decision tree, SpMV, FMM, volrend) at small sizes under
// the default ADF policy, closing the workload matrix.
func determinismCases() []detCase {
	mm := matmul.Config{N: 64, Leaf: 16}
	ff := fft.Config{LogN: 13, Threads: 64}
	policies := []pthread.Policy{
		pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF,
		pthread.PolicyWS, pthread.PolicyDFD,
	}
	var cases []detCase
	for _, pol := range policies {
		cases = append(cases, detCase{
			name: "matmul64/" + string(pol) + "/p4",
			cfg:  pthread.Config{Procs: 4, Policy: pol, DefaultStack: pthread.SmallStackSize},
			prog: matmul.Fine(mm),
		})
		cases = append(cases, detCase{
			name: "fft13/" + string(pol) + "/p3",
			cfg:  pthread.Config{Procs: 3, Policy: pol, DefaultStack: pthread.SmallStackSize},
			prog: fft.Program(ff),
		})
	}

	adf := pthread.Config{Procs: 4, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}
	cases = append(cases,
		detCase{
			name: "bhut256/adf/p4",
			cfg:  adf,
			prog: func(t *pthread.T) {
				barneshut.FineRun(t, barneshut.Config{N: 256, Steps: 1, Seed: 7, InsertChunk: 32})
			},
		},
		detCase{
			name: "dtree4000/adf/p4",
			cfg:  adf,
			prog: func(t *pthread.T) {
				d := dtree.Generate(t, dtree.GenConfig{Instances: 4000, Attrs: 4, Seed: 3})
				dtree.Build(t, d, 250)
			},
		},
		detCase{
			name: "spmv2000/adf/p4",
			cfg:  adf,
			prog: spmv.Fine(spmv.Config{
				Gen:         spmv.GenConfig{Nodes: 2000, TargetNNZ: 10000, Seed: 3},
				Iterations:  2,
				FineThreads: 32,
			}),
		},
		detCase{
			name: "fmm800/adf/p4",
			cfg:  adf,
			prog: fmm.Fine(fmm.Config{N: 800, Levels: 3, Terms: 6}),
		},
		detCase{
			name: "volrend32/adf/p4",
			cfg:  adf,
			prog: volrend.Fine(volrend.Config{
				Gen:            volrend.GenConfig{W: 32, Seed: 5},
				ImageSize:      50,
				Frames:         1,
				TilesPerThread: 2,
			}),
		},
	)
	return cases
}

// runCase formats one golden line: virtual makespan in cycles, heap
// high-water mark in bytes, and the maximum simultaneously live thread
// count.
func runCase(t *testing.T, cfg pthread.Config, prog func(*pthread.T)) string {
	t.Helper()
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return fmt.Sprintf("vtime=%d heap-hwm=%d peak-threads=%d", int64(st.Time), st.HeapHWM, st.PeakLive)
}

// instrumented returns a copy of cfg with every observability hook
// attached (tracer and metrics registry). Instrumentation
// must be pure observation: a run with all hooks attached must produce
// bit-identical virtual results to an uninstrumented run.
func instrumented(cfg pthread.Config) pthread.Config {
	cfg.Tracer = pthread.NewTraceRecorder(0)
	cfg.Metrics = pthread.NewMetrics()
	return cfg
}

func TestDeterminismGolden(t *testing.T) {
	var lines []string
	for _, c := range determinismCases() {
		c := c
		// Two runs per configuration: run-to-run determinism is asserted
		// even when the golden file is being regenerated. The second run
		// carries the full observability stack, so any instrument that
		// charges virtual time or perturbs scheduling order fails here.
		first := runCase(t, c.cfg, c.prog)
		second := runCase(t, instrumented(c.cfg), c.prog)
		if first != second {
			t.Errorf("%s: instrumented run diverges from plain run:\n  plain:        %s\n  instrumented: %s", c.name, first, second)
		}
		lines = append(lines, c.name+" "+first)
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("virtual-time results diverge from the committed golden file.\n"+
			"This means the scheduling order changed. If that is intentional, run\n"+
			"`go test -run TestDeterminismGolden -update-golden` and explain the\n"+
			"change in the PR; otherwise the change broke order preservation.\n\ngot:\n%s\nwant:\n%s", got, want)
	}
}
