package harness

import (
	"fmt"
	"io"

	"spthreads/internal/analyze"
	"spthreads/internal/matmul"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

// The space experiment renders the space-over-time curves behind the
// paper's high-water-mark tables: the FIFO scheduler unfolds the whole
// computation breadth-first and its footprint balloons, while ADF keeps
// the footprint within a band around the serial schedule's. The
// high-water mark alone (fig5/fig9) cannot show the *shape* of the
// difference; the curves can.

func init() {
	register(Experiment{
		ID:    "space",
		Title: "Space over virtual time: matmul under FIFO vs ADF",
		What:  "heap+stack footprint curves sampled at every footprint change",
		Run:   runSpace,
	})
}

// spaceVariants are the configurations the experiment contrasts.
func spaceVariants() []pthread.Policy {
	return []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyADF}
}

func runSpace(w io.Writer, opt Options) error {
	cfg := matmulCfg(opt.paper())
	procs := 8
	fmt.Fprintf(w, "matmul %dx%d, %d processors, small stacks; one curve row per policy\n\n", cfg.N, cfg.N, procs)
	for _, pol := range spaceVariants() {
		rec := trace.NewRecorder(1 << 20)
		st := run(pthread.Config{
			Procs:        procs,
			Policy:       pol,
			DefaultStack: pthread.SmallStackSize,
			Tracer:       rec,
		}, matmul.Fine(cfg))
		prof, err := analyze.Footprint(rec, spaceSampleEvery)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s  (time %v, total HWM %.1f MB, peak live %d)\n",
			pol, st.Time, mb(st.TotalHWM), st.PeakLive)
		fmt.Fprint(w, prof.Curves(72))
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: the space-efficient scheduler holds the footprint near the serial curve; FIFO's grows with the full thread unfolding.")
	return nil
}
