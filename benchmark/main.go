// Command benchmark is the repository's one fixed benchmark: five
// workloads, the same five end-to-end metrics on each, and a per-layer
// breakdown in trace mode. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Values    map[string]metric `json:"metrics"`
}

// spec mirrors the parts of BENCHMARK.json the benchmark itself reads:
// the bounds -selfcheck compares against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// repoRoot is the directory holding BENCHMARK.json: the working
// directory, or its parent when run from inside benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

func loadSpec(root string) (spec, error) {
	var s spec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return s, nil
}

// commit is git's HEAD in root, or "unknown" outside a git checkout.
func commit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	// Do not let git climb into a repository that merely contains root.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printHost prints the host block every output starts with.
func printHost(root string, m *run, seconds float64, trace bool) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d (sim runs under 1) go=%s %s/%s commit=%s\n",
		runtime.NumCPU(), ambientProcs, runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(root))
	fmt.Printf("run: workload=%s seed=%d backend=%s P=%d trace=%v seconds=%g measured=%.1fs setup_rounds=%d warmups_per_arm=%d host_steal=%.1f%%\n",
		m.w.name, m.seed, m.w.backend, m.w.procsHi, trace, seconds, m.measured.Seconds(), setupRounds, warmups, m.stealPct)
	for _, a := range m.arms {
		kind := "timed"
		if a.traced {
			kind = "traced"
		}
		fmt.Printf("reps: p%d %s passes=%d programs=%d\n", a.procs, kind, a.passes(), len(m.w.programs))
	}
	fmt.Printf("yardstick: median %.3f ms over %d runs beside the passes, %.3f ms over %d beside set-up; nominal %g ms, so host factor %.3f and %.3f (sink %g)\n",
		median(m.yard), len(m.yard), median(m.setupYard), len(m.setupYard), yardstickNominalMS, hostFactor(m.yard), hostFactor(m.setupYard), m.yardSink)
}

// printTable prints rows by name; a row in absent shows "-" for its
// value (the result line carries 0 for it).
func printTable(title string, names []string, rows map[string]metric, absent map[string]bool, notes map[string]string) {
	fmt.Println(title)
	for _, n := range names {
		v := fmt.Sprintf("%.6g", rows[n].Value)
		if absent[n] {
			v = "-"
		}
		fmt.Printf("  %-36s %14s %-6s %s\n", n, v, rows[n].Unit, notes[n])
	}
}

// runOne measures one workload and prints its report, ending with the
// result line.
func runOne(root, name string, seed uint64, seconds float64, trace bool) (*run, error) {
	m, err := measure(name, seed, seconds, trace, false)
	if err != nil {
		return nil, err
	}
	printHost(root, m, seconds, trace)
	res := result{Correct: len(m.failures) == 0, Attempted: m.attempted, Failed: len(m.failures), Values: map[string]metric{}}
	for i, f := range m.failures {
		if i == 10 {
			fmt.Printf("FAILED: ... and %d more\n", len(m.failures)-10)
			break
		}
		fmt.Println("FAILED:", f)
	}
	e2e := m.endToEnd()
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	notes := map[string]string{}
	for n, v := range m.rawTimes() {
		notes[n] = fmt.Sprintf("= %.6g as measured / host factor", v)
	}
	printTable("end-to-end (untraced; times divided by the host factor):", names, e2e, nil, notes)
	fmt.Printf("  %-36s %14d\n  %-36s %14d\n", "ops", m.attempted, "failed_ops", len(m.failures))
	if !trace {
		res.Values = e2e
	} else {
		rep := m.perLayer(runProbes())
		notes = rep.notes
		rows := map[string]metric{}
		names = names[:0]
		for _, pl := range perLayerNames {
			v, ok := rep.rows[pl.name]
			if !ok {
				return nil, fmt.Errorf("per-layer row %s was not computed", pl.name)
			}
			if rep.absent[pl.name] && notes[pl.name] == "" {
				notes[pl.name] = "absent on this workload"
			}
			rows[pl.name] = metric{v, pl.unit}
			names = append(names, pl.name)
		}
		printTable("per-layer (traced run; probes' sink "+fmt.Sprint(probeSink)+"):", names, rows, rep.absent, notes)
		path, err := writeSpans(filepath.Join(root, "benchmark", "out"), name, m.arm(m.w.procsHi, true).lastSpans)
		if err != nil {
			return nil, err
		}
		fmt.Println("spans of the last traced pP pass:", path)
		if tr := m.arm(m.w.procsHi, true); len(tr.timings.createSelf) > 0 {
			var wallNS float64
			for _, ms := range tr.passTotals(wallMS) {
				wallNS += ms * 1e6
			}
			// Not an exclusive share: a parent waiting in the ready structure
			// is counted while other threads run, so it can pass 100 %.
			fmt.Printf("fork path (creates net of the child's body, finished-thread joins, thread end to join return): %.3f%% of traced wall x P\n",
				100*tr.timings.forkPathNS()/(wallNS*float64(tr.procs)))
		}
		res.Values = rows
	}
	for n, v := range res.Values {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return m, nil
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics against their bounds")
	doFreeze := flag.Bool("freeze", false, "regenerate benchmark/expected.json for seeds 1-3")
	flag.Parse()
	if err := mainErr(*workloadFlag, *seed, *seconds, *trace != 0, *selfcheck, *doFreeze); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace, selfcheck, doFreeze bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	switch {
	case doFreeze:
		return freeze(filepath.Join(root, "benchmark"))
	case selfcheck:
		return selfCheck(root, sp, seed, seconds)
	case name == "":
		return fmt.Errorf("-workload is required (one of %s), or -selfcheck", strings.Join(workloadNames, ", "))
	}
	// A run that broke a failure rule still ends in a result line (with
	// correct = false) and exit code 0: the caller reads the line.
	_, err = runOne(root, name, seed, seconds, trace)
	return err
}

// selfCheck runs every workload twice and holds the two sets of
// end-to-end metrics against each other: the same commit must agree
// with itself within the bounds the benchmark asks of other commits.
func selfCheck(root string, sp spec, seed uint64, seconds float64) error {
	type row struct {
		workload, name string
		a, b, bound    float64
	}
	var rows []row
	for _, name := range workloadNames {
		var e [2]map[string]metric
		for i := range e {
			m, err := runOne(root, name, seed, seconds, false)
			if err != nil {
				return err
			}
			if len(m.failures) > 0 {
				return fmt.Errorf("%s: %d of %d runs failed", name, len(m.failures), m.attempted)
			}
			e[i] = m.endToEnd()
		}
		for _, em := range sp.EndToEnd {
			rows = append(rows, row{name, em.Name, e[0][em.Name].Value, e[1][em.Name].Value, em.Bound})
		}
	}
	breaches := 0
	fmt.Printf("\nselfcheck: two runs of the same commit, seed %d\n%-10s %-15s %14s %14s %9s %7s\n",
		seed, "workload", "metric", "first", "second", "diff", "bound")
	for _, r := range rows {
		diff := (r.b - r.a) / r.a
		mark := ""
		if math.Abs(diff) > r.bound {
			mark = "  BREACH"
			breaches++
		}
		fmt.Printf("%-10s %-15s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", r.workload, r.name, r.a, r.b, 100*diff, 100*r.bound, mark)
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics differ by more than their bound", breaches)
	}
	return nil
}
