// Command ptbench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	ptbench list
//	ptbench [-scale small|paper] [-procs 1,2,4,8] <experiment id>...
//	ptbench -scale paper all
//
// Experiment ids follow the paper's artifacts: fig1, fig3, fig5, fig6,
// fig7, fig8, fig9, fig10, fig11, scale, the ablations ablk, ablws and
// abldummy, and the future-work extensions ablloc and ablsched. The
// contention-sharded experiment sweeps the sharded policy "adf-shard"
// (per-worker label deques with bounded-deviation stealing) against the
// batched global baseline at p up to 1024.
//
// Exit status: 0 on success, 2 for usage errors (a bad flag value or an
// unknown experiment id), 1 when an experiment fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spthreads/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "paper", "problem scale: small or paper")
	procsFlag := fs.String("procs", "", "comma-separated processor counts to sweep (default per experiment)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `ptbench regenerates the paper's tables and figures.

usage:
  ptbench list
  ptbench [-scale small|paper] [-procs 1,2,4,8] <experiment id>...
  ptbench all

experiments: %s

`, strings.Join(experimentIDs(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return 2
	}
	if ids[0] == "list" {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-11s %s\n            %s\n", e.ID, e.Title, e.What)
		}
		return 0
	}

	if *scale != "small" && *scale != "paper" {
		fmt.Fprintf(stderr, "ptbench: bad -scale %q (want small or paper)\n", *scale)
		fs.Usage()
		return 2
	}
	opt := harness.Options{Scale: *scale}
	if *procsFlag != "" {
		for _, f := range strings.Split(*procsFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p <= 0 {
				fmt.Fprintf(stderr, "ptbench: bad -procs entry %q\n", f)
				return 2
			}
			opt.Procs = append(opt.Procs, p)
		}
	}

	if len(ids) == 1 && ids[0] == "all" {
		ids = experimentIDs()
	}
	for _, id := range ids {
		e, ok := harness.Find(id)
		if !ok {
			fmt.Fprintf(stderr, "ptbench: unknown experiment %q (available: %s)\n",
				id, strings.Join(experimentIDs(), " "))
			return 2
		}
		fmt.Fprintf(stdout, "== %s: %s\n   %s\n\n", e.ID, e.Title, e.What)
		start := time.Now()
		if err := e.Run(stdout, opt); err != nil {
			fmt.Fprintf(stderr, "ptbench: %s failed: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n   [%s completed in %.1fs wall clock]\n\n", e.ID, time.Since(start).Seconds())
	}
	return 0
}

// experimentIDs returns every registered experiment id, sorted.
func experimentIDs() []string {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
