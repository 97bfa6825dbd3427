package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"spthreads/pthread"
)

// expected.json freezes, for seeds 1–3, what every program of every
// workload must give: its checksum, its thread count and, on sim, every
// scalar statistic at both processor counts. It is written by -freeze.
//
//go:embed expected.json
var expectedJSON []byte

type frozenProgram struct {
	Checksum float64           `json:"checksum"`
	Threads  int64             `json:"threads"`
	Digests  map[string]string `json:"digests,omitempty"` // sim: by processor count
}

// frozen is seed -> workload -> program -> values.
type frozen map[string]map[string]map[string]frozenProgram

var frozenSeeds = []uint64{1, 2, 3}

func loadFrozen() (frozen, error) {
	var f frozen
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("parse expected.json: %w", err)
	}
	return f, nil
}

// applyFrozen attaches the frozen values for seed to w's programs. For
// a seed that is not frozen it leaves them open, and the runs check
// agreement instead (see referenceOnSim and runner.check). A frozen
// value that contradicts one computed from the generated inputs, or
// taken from the reference run on the simulator, means the generator
// changed, which would silently change the workload.
func applyFrozen(w *workload, seed uint64) error {
	all, err := loadFrozen()
	if err != nil {
		return err
	}
	progs, ok := all[strconv.FormatUint(seed, 10)][w.name]
	if !ok {
		return nil
	}
	for _, p := range w.programs {
		fp, ok := progs[p.name]
		if !ok {
			return fmt.Errorf("expected.json has no program %q for workload %s seed %d", p.name, w.name, seed)
		}
		if p.haveSum && (p.wantSum != fp.Checksum || p.wantThreads != fp.Threads) {
			return fmt.Errorf("%s/%s seed %d: generated inputs give checksum %v and %d threads, frozen are %v and %d: the generator changed",
				w.name, p.name, seed, p.wantSum, p.wantThreads, fp.Checksum, fp.Threads)
		}
		p.wantSum, p.haveSum, p.wantThreads = fp.Checksum, true, fp.Threads
		if len(fp.Digests) > 0 {
			p.wantDigest = map[int]string{}
			for procs, d := range fp.Digests {
				n, err := strconv.Atoi(procs)
				if err != nil {
					return fmt.Errorf("expected.json: processor count %q: %w", procs, err)
				}
				p.wantDigest[n] = d
			}
		}
	}
	return nil
}

// referenceOnSim runs every program whose result is still open once on
// the simulator at p = 1 and takes its checksum and thread count as the
// reference, so that the native runs of an unfrozen seed are checked for
// p1 = pP = sim agreement.
func referenceOnSim(w *workload) error {
	cfg := pthread.Config{Backend: pthread.BackendSim, Procs: 1, DefaultStack: pthread.SmallStackSize}
	for _, p := range w.programs {
		if p.haveSum {
			continue
		}
		st, err := pthread.Run(cfg, func(t *pthread.T) { p.run(t, nil) })
		if err != nil {
			return fmt.Errorf("%s/%s: reference run on sim: %w", w.name, p.name, err)
		}
		p.wantSum, p.haveSum, p.wantThreads = p.checksum(), true, st.ThreadsCreated
	}
	return nil
}

// freeze regenerates expected.json in dir: every workload is run on
// frozenSeeds at both processor counts (native results first checked
// against the simulator), and what the runs agree on is written out.
func freeze(dir string) error {
	out := frozen{}
	for _, seed := range frozenSeeds {
		byWorkload := map[string]map[string]frozenProgram{}
		for _, name := range workloadNames {
			w, err := newWorkload(name, seed, false)
			if err != nil {
				return err
			}
			if w.backend == pthread.BackendNative {
				if err := referenceOnSim(w); err != nil {
					return err
				}
			}
			r := newRunner(w)
			progs := map[string]frozenProgram{}
			for _, p := range w.programs {
				for _, procs := range w.armProcs() {
					if s := r.exec(p, procs, r.config(procs), nil); s.fail != "" {
						return fmt.Errorf("freeze %s seed %d: %s", name, seed, s.fail)
					}
				}
				fp := frozenProgram{Checksum: p.wantSum, Threads: p.wantThreads}
				for procs, d := range p.wantDigest {
					if fp.Digests == nil {
						fp.Digests = map[string]string{}
					}
					fp.Digests[strconv.Itoa(procs)] = d
				}
				progs[p.name] = fp
			}
			byWorkload[name] = progs
			fmt.Printf("froze %s seed %d\n", name, seed)
		}
		out[strconv.FormatUint(seed, 10)] = byWorkload
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("encode expected.json: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "expected.json"), append(data, '\n'), 0o644)
}
