package harness

import (
	"fmt"
	"testing"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

// TestReplayedPeaksMatchStats: on the sim, the footprint replayed from
// the trace reaches the machine's own heap, stack and total high-water
// marks exactly, for every audit program under every policy.
func TestReplayedPeaksMatchStats(t *testing.T) {
	for _, prog := range auditPrograms(Options{Scale: "small"}) {
		for _, pol := range pthread.Policies() {
			t.Run(fmt.Sprintf("%s/%s", prog.name, pol), func(t *testing.T) {
				rec := trace.NewRecorder(1 << 20)
				st := run(pthread.Config{
					Procs:        8,
					Policy:       pol,
					DefaultStack: pthread.SmallStackSize,
					Tracer:       rec,
				}, prog.prog)
				prof, err := analyze.Footprint(rec, 0)
				if err != nil {
					t.Fatal(err)
				}
				heap, stack, total := prof.HWM()
				if heap != st.HeapHWM || stack != st.StackHWM || total != st.TotalHWM {
					t.Errorf("replayed peaks heap %d stack %d total %d, machine's %d %d %d",
						heap, stack, total, st.HeapHWM, st.StackHWM, st.TotalHWM)
				}
			})
		}
	}
}
