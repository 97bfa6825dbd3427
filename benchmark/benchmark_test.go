package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHighTailNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		percentile float64
	}{
		{5, 50}, {39, 50}, // p75 of 39 leaves 9 beyond
		{40, 75}, {99, 75}, // p90 of 99 leaves 9 beyond
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		v, p := highTail(series(tc.n))
		if p != tc.percentile {
			t.Errorf("n=%d: reported p%v, want p%v", tc.n, p, tc.percentile)
		}
		if beyond := tc.n - int(v); p != 50 && beyond < tailSamples {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", tc.n, p, v, beyond)
		}
	}
	if v, p := highTail(nil); v != 0 || p != 50 {
		t.Errorf("empty sample: got %v at p%v, want 0 at p50", v, p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		// Nested chain: 2 inside 1, 3 inside 2.
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 2, start: 20, end: 30},
		// Overlapping siblings under 1: [50,70) and [60,80) cover 30.
		{id: 4, parent: 1, start: 50, end: 70},
		{id: 5, parent: 1, start: 60, end: 80},
		// A child that sticks out of its parent on both sides.
		{id: 6, start: 200, end: 210},
		{id: 7, parent: 6, start: 190, end: 205},
		{id: 8, parent: 6, start: 207, end: 300},
		// A child wholly outside its parent covers nothing.
		{id: 9, start: 400, end: 410},
		{id: 10, parent: 9, start: 420, end: 430},
	}
	want := map[uint64]int64{1: 100 - 30 - 30, 2: 30 - 10, 3: 10, 4: 20, 5: 20, 6: 10 - 5 - 3, 7: 15, 8: 93, 9: 10, 10: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTreeHasExactlyNThreads(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		n := 1 + int(mix(seed)%5000)
		nodes := buildTree(n, seed, true)
		if len(nodes) != n {
			t.Fatalf("seed %d: %d nodes, want %d", seed, len(nodes), n)
		}
		// Every node but the root is the child of exactly one earlier node.
		parents := make([]int, n)
		for i, nd := range nodes {
			for _, c := range []int32{nd.left, nd.right} {
				if c < 0 {
					continue
				}
				if int(c) <= i || int(c) >= n {
					t.Fatalf("seed %d: node %d has child %d", seed, i, c)
				}
				parents[c]++
			}
			if nd.size <= 0 {
				t.Fatalf("seed %d: node %d allocates %d bytes", seed, i, nd.size)
			}
		}
		for i, p := range parents {
			if want := 1; i > 0 && p != want || i == 0 && p != 0 {
				t.Fatalf("seed %d: node %d has %d parents", seed, i, p)
			}
		}
	}
	a, b := buildTree(4096, 1, false), buildTree(4096, 2, false)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("seeds 1 and 2 give the same tree: the seed does not drive the shape")
	}
}

func TestAllocSizeMix(t *testing.T) {
	var big, twin, mid, small int
	const n = 1 << 16
	for i := 0; i < n; i++ {
		leaf := i%2 == 0
		s, s2 := allocSizes(mix(uint64(i)), leaf)
		if !leaf && (s2 > 0 || s > 4<<10) {
			t.Fatalf("an inner node draws %d+%d bytes: only leaves may hold more than 4 KB", s, s2)
		}
		switch {
		case s2 > 0:
			twin++
			if int64(s) > quotaK || int64(s2) > quotaK || int64(s)+int64(s2) < quotaK {
				t.Fatalf("twin %d+%d must preempt without dummies (K = %d)", s, s2, quotaK)
			}
		case int64(s) > quotaK:
			big++
		case s >= 16<<10:
			mid++
		default:
			small++
		}
	}
	for name, c := range map[string][2]int{"above K": {big, n / 64}, "twins": {twin, n / 64}, "16-48 KB": {mid, n / 8}} {
		if c[0] < c[1]*8/10 || c[0] > c[1]*12/10 {
			t.Errorf("%s: %d of %d, want about %d", name, c[0], n, c[1])
		}
	}
	if small < n/2 {
		t.Errorf("only %d of %d allocations are small", small, n)
	}
}

// TestSmokeEveryWorkload runs each workload at 1/64 size through the
// whole traced path: set-up rounds, both arms timed and traced, the
// failure rules, and every per-layer row that is not a probe.
func TestSmokeEveryWorkload(t *testing.T) {
	probes := map[string]float64{}
	for _, pl := range perLayerNames {
		for _, layer := range []string{"sched.", "memsim.", "trace.", "metrics.", "core.depa", "pthread.run_empty"} {
			if strings.HasPrefix(pl.name, layer) {
				probes[pl.name] = 1
			}
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			m, err := measure(name, 7, 0, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.failures) > 0 {
				t.Fatalf("failed runs: %v", m.failures)
			}
			if want := len(m.arms) * minPasses * len(m.w.programs); m.attempted != want {
				t.Errorf("attempted %d runs, want %d", m.attempted, want)
			}
			e2e := m.endToEnd()
			for n, v := range e2e {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", n, v.Value)
				}
			}
			// One yardstick before every arm's pass and one after the last;
			// the reported times are the measured ones over the host factor.
			if want := len(m.arms)*minPasses + 1; len(m.yard) != want {
				t.Errorf("%d yardstick runs beside the passes, want %d", len(m.yard), want)
			}
			if got, want := e2e["wall_ms"].Value, m.rawTimes()["wall_ms"]*yardstickNominalMS/median(m.yard); math.Abs(got-want) > 1e-9*want {
				t.Errorf("wall_ms = %v, want measured x nominal / yardstick median = %v", got, want)
			}
			if got, want := e2e["setup_s"].Value, median(m.setupS)*yardstickNominalMS/median(m.setupYard); math.Abs(got-want) > 1e-9*want {
				t.Errorf("setup_s = %v, want measured x nominal / set-up yardstick median = %v", got, want)
			}
			rep := m.perLayer(probes)
			for _, pl := range perLayerNames {
				if _, ok := rep.rows[pl.name]; !ok {
					t.Errorf("per-layer row %s missing", pl.name)
				}
			}
			kernelRows := name == "paper7" || name == "sim"
			if rep.absent["matmul.wall_ms"] == kernelRows {
				t.Errorf("matmul.wall_ms absent = %v on %s", !kernelRows, name)
			}
			if mallocs := !rep.absent["native.malloc_p50_ns"]; mallocs != (name == "alloc") {
				t.Errorf("native.malloc_p50_ns present = %v on %s", mallocs, name)
			}
			// syncpipe's roots fork a few dozen threads, enough to measure the
			// fork path there too; the kernels fork inside library code.
			if forks := !rep.absent["native.fork_to_start_p50_ns"]; forks != (name == "spawn" || name == "alloc" || name == "syncpipe") {
				t.Errorf("native.fork_to_start_p50_ns present = %v on %s", forks, name)
			}
			if name == "alloc" {
				for _, row := range []string{"native.malloc_preempt_p50_ns", "native.malloc_dummy_p50_ns", "native.free_p50_ns"} {
					if rep.absent[row] {
						t.Errorf("%s absent on alloc", row)
					}
				}
				if rep.rows["pthread.dummy_threads"] == 0 {
					t.Error("alloc forked no dummy threads")
				}
			}
		})
	}
}

func TestFailureRules(t *testing.T) {
	w, err := newWorkload("spawn", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w)
	p := w.programs[0]
	if s := r.exec(p, 1, r.config(1), nil); s.fail != "" {
		t.Fatalf("clean run failed: %s", s.fail)
	}
	p.wantSum++
	if s := r.exec(p, 1, r.config(1), nil); !strings.Contains(s.fail, "checksum") {
		t.Errorf("wrong checksum not caught: %q", s.fail)
	}
	p.wantSum--
	p.wantThreads++
	if s := r.exec(p, 1, r.config(1), nil); !strings.Contains(s.fail, "threads") {
		t.Errorf("wrong thread count not caught: %q", s.fail)
	}
	p.wantThreads--
	stop := make(chan struct{})
	go func() { <-stop }()
	if s := r.exec(p, 1, r.config(1), nil); !strings.Contains(s.fail, "goroutines") {
		t.Errorf("leaked goroutine not caught: %q", s.fail)
	}
	close(stop)
	cfg := r.config(1)
	cfg.Procs = -1
	if s := r.exec(p, 1, cfg, nil); !strings.Contains(s.fail, "run error") {
		t.Errorf("run error not caught: %q", s.fail)
	}

	sim, err := newWorkload("sim", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	rs := newRunner(sim)
	tree := sim.programs[len(sim.programs)-1]
	if s := rs.exec(tree, 1, rs.config(1), nil); s.fail != "" {
		t.Fatalf("clean sim run failed: %s", s.fail)
	}
	tree.wantDigest[1] += " "
	if s := rs.exec(tree, 1, rs.config(1), nil); !strings.Contains(s.fail, "simulated statistics") {
		t.Errorf("changed simulated statistic not caught: %q", s.fail)
	}
}

func TestProbeCalibratesAndConsumes(t *testing.T) {
	before := probeSink
	calls := 0
	ns := probe(func(n int) uint64 {
		calls++
		time.Sleep(time.Duration(n) * time.Millisecond)
		return uint64(n)
	})
	if ns < 0.9e6 || ns > 3e6 {
		t.Errorf("a 1 ms operation measured %v ns", ns)
	}
	if calls < 1+probeRounds {
		t.Errorf("%d calls, want calibration plus %d rounds", calls, probeRounds)
	}
	if probeSink == before {
		t.Error("probe did not consume its results")
	}
}

func TestFrozenCoversSeedsAndWorkloads(t *testing.T) {
	f, err := loadFrozen()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range frozenSeeds {
		for _, name := range workloadNames {
			w, err := newWorkload(name, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := applyFrozen(w, seed); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			for _, p := range w.programs {
				if !p.haveSum || p.wantThreads <= 0 {
					t.Errorf("%s/%s seed %d left open after applyFrozen", name, p.name, seed)
				}
				if name == "sim" && (p.wantDigest[1] == "" || p.wantDigest[simProcs] == "") {
					t.Errorf("sim/%s seed %d has no frozen digest", p.name, seed)
				}
			}
		}
	}
	if _, ok := f["4"]; ok {
		t.Error("seed 4 is frozen; the agreement path has no seed left to run on")
	}
}

// TestSpecMatchesCode holds BENCHMARK.json and the code to one list of
// workloads and metrics.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloadNames[i])
		}
	}
	m, err := measure("spawn", 7, 0, false, true)
	if err != nil {
		t.Fatal(err)
	}
	e2e := m.endToEnd()
	if len(sp.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(sp.EndToEnd), len(e2e))
	}
	for _, em := range sp.EndToEnd {
		if got, ok := e2e[em.Name]; !ok || got.Unit != em.Unit {
			t.Errorf("end-to-end %s [%s]: code has %+v (present %v)", em.Name, em.Unit, got, ok)
		}
		if em.Bound <= 0 || em.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", em.Name, em.Bound)
		}
	}
	if len(sp.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(sp.PerLayer), len(perLayerNames))
	}
	for i, pl := range sp.PerLayer {
		if pl.Name != perLayerNames[i].name || pl.Unit != perLayerNames[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in code", i, pl.Name, pl.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
}

// TestGatingPathSurface checks that the benchmark compiles against only
// the surface later PRs do not plan to delete: no file names a Config
// field beyond Backend, Procs and DefaultStack (instruments.go may set
// Metrics, for traced runs), and only probes.go imports below package
// pthread and the seven kernels.
func TestGatingPathSurface(t *testing.T) {
	forbidden := map[string]bool{"Engine": true, "SchedMode": true, "SchedBatch": true, "SchedShard": true,
		"StealWindow": true, "ShardStrict": true, "MemQuota": true, "Tracer": true}
	configKeys := map[string]bool{"Backend": true, "Procs": true, "DefaultStack": true}
	allowedImports := map[string]bool{"spthreads/pthread": true}
	for _, k := range kernelNames {
		allowedImports["spthreads/internal/"+k] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "spthreads/") && !allowedImports[path] && file != "probes.go" {
				t.Errorf("%s imports %s: only probes.go may reach below package pthread", file, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if forbidden[n.Sel.Name] {
					t.Errorf("%s: uses .%s", fset.Position(n.Pos()), n.Sel.Name)
				}
				if n.Sel.Name == "Metrics" && file != "instruments.go" {
					t.Errorf("%s: .Metrics outside instruments.go", fset.Position(n.Pos()))
				}
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Config" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "pthread" {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						t.Errorf("%s: pthread.Config literal without field names", fset.Position(el.Pos()))
						continue
					}
					if key := kv.Key.(*ast.Ident).Name; !configKeys[key] {
						t.Errorf("%s: pthread.Config sets %s", fset.Position(kv.Pos()), key)
					}
				}
			}
			return true
		})
	}
}
