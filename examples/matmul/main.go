// The paper's case study (Section 3): a divide-and-conquer dense matrix
// multiply where every recursive call is a lightweight thread, run under
// each scheduler to show the breadth-first explosion of the original
// FIFO queue and the space efficiency of the ADF scheduler.
//
//	go run ./examples/matmul [-n 512] [-procs 8] [-backend sim|native]
package main

import (
	"flag"
	"fmt"
	"log"

	"spthreads/internal/matmul"
	"spthreads/pthread"
)

func main() {
	n := flag.Int("n", 512, "matrix dimension (power of two)")
	procs := flag.Int("procs", 8, "virtual processors")
	backend := flag.String("backend", "sim", "execution backend: sim (deterministic virtual time) or native (real goroutines)")
	flag.Parse()
	be, err := parseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	if be == pthread.BackendNative {
		fmt.Println("native backend: times are wall-derived and vary between hosts and runs")
	}

	cfg := matmul.Config{N: *n, Check: true}

	// The serial baseline runs on the same backend so the speedup column
	// compares like with like (virtual vs virtual, or wall vs wall).
	serial, err := pthread.Run(pthread.Config{
		Procs:        1,
		Policy:       pthread.PolicyLIFO,
		Backend:      be,
		DefaultStack: pthread.SmallStackSize,
	}, matmul.Serial(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial: %v, heap %.1f MB\n\n", serial.Time, mb(serial.HeapHWM))

	// Work stealing is sim-only: natively the table has no ws row.
	policies := []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyWS, pthread.PolicyADF}
	if be == pthread.BackendNative {
		policies = []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF}
	}
	fmt.Printf("%-6s %10s %10s %12s %12s %12s\n",
		"policy", "time", "speedup", "heap MB", "total MB", "peak threads")
	for _, pol := range policies {
		st, err := pthread.Run(pthread.Config{
			Procs:        *procs,
			Policy:       pol,
			Backend:      be,
			DefaultStack: pthread.SmallStackSize,
		}, matmul.Fine(cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %10v %10.2f %12.1f %12.1f %12d\n",
			pol, st.Time, float64(serial.Time)/float64(st.Time),
			mb(st.HeapHWM), mb(st.TotalHWM), st.PeakLive)
	}
	fmt.Println("\nFIFO unfolds the fork tree breadth-first: thousands of live threads")
	fmt.Println("and a heap of every temporary at once. ADF keeps the serial order:")
	fmt.Println("near-serial footprint at full speedup.")
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// parseBackend validates a -backend flag value against the library's
// registered backends.
func parseBackend(s string) (pthread.Backend, error) {
	for _, b := range pthread.Backends() {
		if string(b) == s {
			return b, nil
		}
	}
	return "", fmt.Errorf("unknown -backend %q (want sim or native)", s)
}
