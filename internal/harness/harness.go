// Package harness defines and runs the paper's experiments: one
// registered experiment per table or figure (fig1, fig3, fig5..fig11),
// the 16-processor scalability check (scale), the ablations the design
// calls out (ablk, ablws, abldummy, ablloc, ablsched), the space curves
// (space), the space-bound audit (bound-audit) and the scheduler-lock
// sweeps (contention, contention-sharded). Each experiment prints one
// text table: the rows or series the paper reports, in virtual time, so
// the output is deterministic. testdata/small.golden pins every
// experiment's output at -scale small -procs 2,8 byte for byte.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// Options controls an experiment run.
type Options struct {
	// Scale selects problem sizes: "small" (quick, for tests and
	// go test -bench) or "paper" (the paper's sizes where feasible;
	// EXPERIMENTS.md records deviations).
	Scale string
	// Procs overrides the processor counts swept (nil keeps defaults).
	Procs []int
}

func (o Options) paper() bool { return o.Scale == "paper" }

func (o Options) procs(def []int) []int {
	if len(o.Procs) > 0 {
		return o.Procs
	}
	return def
}

// Experiment is one runnable reproduction target.
type Experiment struct {
	ID    string
	Title string
	// What shows the paper artifact being regenerated.
	What string
	Run  func(w io.Writer, opt Options) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by id.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// run executes a program on a fresh machine, converting errors to
// panics (experiments are driven interactively; a failure should abort
// loudly).
func run(cfg pthread.Config, prog func(*pthread.T)) pthread.Stats {
	st, err := pthread.Run(cfg, prog)
	if err != nil {
		panic(fmt.Sprintf("harness: run failed: %v", err))
	}
	return st
}

// serialTime measures the baseline program on one processor with no
// quota machinery (the "serial C version" reference of the speedup
// plots).
func serialTime(prog func(*pthread.T)) vtime.Duration {
	st := run(pthread.Config{
		Procs:        1,
		Policy:       pthread.PolicyLIFO,
		DefaultStack: pthread.SmallStackSize,
	}, prog)
	return st.Time
}

// speedup formats a speedup value.
func speedup(serial vtime.Duration, st pthread.Stats) float64 {
	return float64(serial) / float64(st.Time)
}

// mb formats bytes as decimal megabytes the way the paper's plots do.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// table is a small helper over tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// defaultProcs is the paper's processor sweep.
var defaultProcs = []int{1, 2, 4, 8}
