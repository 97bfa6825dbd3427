package analyze

import (
	"bufio"
	"fmt"
	"io"

	"spthreads/internal/trace"
)

// WriteDOT renders the trace's fork-join DAG as a Graphviz digraph: one
// node per thread, labeled with its id and execution time, a solid edge
// per fork and a dashed edge from each joined thread to its joiner.
func WriteDOT(w io.Writer, rec *trace.Recorder) error {
	events := rec.Events()
	if len(events) == 0 {
		return errEmpty
	}
	a := newAnalysis(events)
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "digraph computation {\n  rankdir=TB;\n  node [shape=box];\n")
	for _, id := range a.order {
		r := a.threads[id]
		fmt.Fprintf(bw, "  t%d [label=\"t%d\\n%s\"];\n", id, id, rec.Unit().FormatDuration(int64(r.cum[len(r.segs)])))
	}
	for _, id := range a.order {
		for _, o := range a.threads[id].ops {
			switch o.kind {
			case opFork:
				fmt.Fprintf(bw, "  t%d -> t%d;\n", id, o.other)
			case opJoin:
				fmt.Fprintf(bw, "  t%d -> t%d [style=dashed];\n", o.other, id)
			}
		}
	}
	fmt.Fprint(bw, "}\n")
	return bw.Flush()
}
