// Renders the volume-rendering benchmark's procedural head with the
// fine-grained tile threads and writes the image as a PGM file — the
// computation is real, only the clock is virtual.
//
//	go run ./examples/render [-size 256] [-volume 128] [-out head.pgm] [-backend sim|native]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"spthreads/internal/volrend"
	"spthreads/pthread"
)

func main() {
	size := flag.Int("size", 256, "image edge in pixels")
	volumeW := flag.Int("volume", 128, "volume edge in voxels")
	out := flag.String("out", "head.pgm", "output PGM path")
	procs := flag.Int("procs", 8, "virtual processors")
	backend := flag.String("backend", "sim", "execution backend: sim (deterministic virtual time) or native (real goroutines)")
	flag.Parse()
	be, err := parseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}

	cfg := volrend.Config{
		Gen:       volrend.GenConfig{W: *volumeW},
		ImageSize: *size,
		Frames:    1,
	}

	// DFD is locality-aware: neighbouring tiles share TLB state, a gain
	// the sim's TLB model charges. Native has no TLB model, and DFD is
	// sim-only there, so a native render runs ADF.
	policy := pthread.PolicyDFD
	if be == pthread.BackendNative {
		policy = pthread.PolicyADF
	}
	var pix []float64
	stats, err := pthread.Run(pthread.Config{
		Procs:        *procs,
		Policy:       policy,
		Backend:      be,
		DefaultStack: pthread.SmallStackSize,
	}, func(t *pthread.T) {
		pix = volrend.RenderImage(t, cfg)
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := writePGM(*out, pix, *size); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %dx%d from a %d^3 volume on %d virtual processors\n",
		*size, *size, *volumeW, *procs)
	fmt.Printf("virtual time %v, %d threads, peak live %d\n",
		stats.Time, stats.ThreadsCreated, stats.PeakLive)
	fmt.Printf("wrote %s\n", *out)
}

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

// writePGM stores the intensity buffer as an 8-bit binary PGM.
func writePGM(path string, pix []float64, size int) error {
	var max float64
	for _, v := range pix {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "P5\n%d %d\n255\n", size, size)
	for _, v := range pix {
		b := byte(v / max * 255)
		if err := w.WriteByte(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
