// Package spaceprof holds a run's live memory footprint and thread
// population *over time* — the paper's space results (Figures 8 and 9)
// as curves rather than end-of-run high-water marks. A profiler is fed
// by internal/analyze, which replays a run's event trace and samples
// after every footprint transition (allocation, free, stack map/unmap,
// thread create/exit); the run itself carries no profiler.
package spaceprof

import (
	"fmt"
	"io"
	"strings"

	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// Sample is one observation of the machine's live footprint.
type Sample struct {
	// At is the virtual time of the observation, in cycles.
	At vtime.Time `json:"t_cycles"`
	// Heap and Stack are the live simulated footprints in bytes.
	Heap  int64 `json:"heap_bytes"`
	Stack int64 `json:"stack_bytes"`
	// Live is the number of live (created, not yet exited) threads.
	Live int `json:"live_threads"`
}

// Total returns the combined heap+stack footprint.
func (s Sample) Total() int64 { return s.Heap + s.Stack }

// Profiler accumulates samples. With a coalescing interval, only the
// peak-total sample per interval is retained (plus the final sample), so
// long runs stay bounded without losing the curve's spikes. A zero
// interval keeps every observation.
type Profiler struct {
	every   vtime.Duration
	samples []Sample

	// pending is the peak-total sample of the open coalescing interval.
	pending    Sample
	hasPending bool
}

// New returns a profiler coalescing to at most one retained sample per
// `every` of virtual time (0 retains every observation).
func New(every vtime.Duration) *Profiler {
	return &Profiler{every: every}
}

// Sample records one footprint observation. Observations may arrive
// slightly out of timestamp order (processor clocks interleave); the
// renderers bucket by time, so no sorting is required here.
func (p *Profiler) Sample(at vtime.Time, heap, stack int64, live int) {
	if p == nil {
		return
	}
	s := Sample{At: at, Heap: heap, Stack: stack, Live: live}
	if p.every <= 0 {
		p.samples = append(p.samples, s)
		return
	}
	if p.hasPending && at/vtime.Time(p.every) != p.pending.At/vtime.Time(p.every) {
		p.samples = append(p.samples, p.pending)
		p.hasPending = false
	}
	if !p.hasPending || s.Total() >= p.pending.Total() {
		p.pending = s
		p.hasPending = true
	}
}

// Samples returns the retained samples, flushing any open coalescing
// interval first.
func (p *Profiler) Samples() []Sample {
	if p == nil {
		return nil
	}
	if p.hasPending {
		p.samples = append(p.samples, p.pending)
		p.hasPending = false
	}
	return p.samples
}

// HWM returns the retained heap, stack, and combined high-water marks.
// (The combined mark can be below heap+stack HWMs: they may peak at
// different times.)
func (p *Profiler) HWM() (heap, stack, total int64) {
	for _, s := range p.Samples() {
		if s.Heap > heap {
			heap = s.Heap
		}
		if s.Stack > stack {
			stack = s.Stack
		}
		if t := s.Total(); t > total {
			total = t
		}
	}
	return heap, stack, total
}

// WriteCSV writes the samples as CSV: cycles, microseconds, heap, stack,
// total bytes, and live threads.
func (p *Profiler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_cycles,t_us,heap_bytes,stack_bytes,total_bytes,live_threads"); err != nil {
		return err
	}
	for _, s := range p.Samples() {
		_, err := fmt.Fprintf(w, "%d,%.3f,%d,%d,%d,%d\n",
			int64(s.At), vtime.Duration(s.At).Microseconds(), s.Heap, s.Stack, s.Total(), s.Live)
		if err != nil {
			return err
		}
	}
	return nil
}

// Downsample reduces the samples to at most n points by keeping the
// peak-total sample of each of n equal virtual-time buckets (empty
// buckets carry the previous point forward and are skipped). It is used
// to embed curves in machine-readable benchmark output.
func (p *Profiler) Downsample(n int) []Sample {
	samples := p.Samples()
	if n <= 0 || len(samples) <= n {
		return samples
	}
	end := vtime.Time(0)
	for _, s := range samples {
		if s.At > end {
			end = s.At
		}
	}
	if end == 0 {
		return samples[:1]
	}
	best := make([]*Sample, n)
	for i := range samples {
		s := samples[i]
		b := int(int64(s.At) * int64(n) / (int64(end) + 1))
		if best[b] == nil || s.Total() > best[b].Total() {
			best[b] = &samples[i]
		}
	}
	out := make([]Sample, 0, n)
	for _, s := range best {
		if s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// sparkGlyphs are the eight block glyphs used by Sparkline, lowest to
// highest.
var sparkGlyphs = []rune(" ▁▂▃▄▅▆▇█")

// sparkline renders values (already bucketed over time) as a block
// curve scaled to the series maximum.
func sparkline(vals []int64) string {
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		if max == 0 {
			b.WriteRune(sparkGlyphs[0])
			continue
		}
		i := int(v * int64(len(sparkGlyphs)-1) / max)
		b.WriteRune(sparkGlyphs[i])
	}
	return b.String()
}

// bucketMax folds the samples into width time buckets, keeping each
// bucket's maximum of f(sample); empty buckets inherit the previous
// bucket's last value (the footprint persists between events).
func (p *Profiler) bucketMax(width int, f func(Sample) int64) []int64 {
	samples := p.Samples()
	out := make([]int64, width)
	if len(samples) == 0 {
		return out
	}
	end := vtime.Time(0)
	for _, s := range samples {
		if s.At > end {
			end = s.At
		}
	}
	filled := make([]bool, width)
	for _, s := range samples {
		b := 0
		if end > 0 {
			b = int(int64(s.At) * int64(width) / (int64(end) + 1))
		}
		if v := f(s); !filled[b] || v > out[b] {
			out[b] = v
			filled[b] = true
		}
	}
	// Carry the last seen level through empty buckets.
	var carry int64
	for i := range out {
		if filled[i] {
			carry = out[i]
		} else {
			out[i] = carry
		}
	}
	return out
}

// Curves renders the heap, stack, and live-thread curves as labeled
// text sparklines of the given width — a terminal rendition of the
// paper's space-over-time figures.
func (p *Profiler) Curves(width int) string {
	if width <= 0 {
		width = 80
	}
	if len(p.Samples()) == 0 {
		return "(no samples)\n"
	}
	heapHWM, stackHWM, totalHWM := p.HWM()
	var maxLive int64
	for _, s := range p.Samples() {
		if int64(s.Live) > maxLive {
			maxLive = int64(s.Live)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "heap  |%s| peak %s\n", sparkline(p.bucketMax(width, func(s Sample) int64 { return s.Heap })), core.FormatBytes(heapHWM))
	fmt.Fprintf(&b, "stack |%s| peak %s\n", sparkline(p.bucketMax(width, func(s Sample) int64 { return s.Stack })), core.FormatBytes(stackHWM))
	fmt.Fprintf(&b, "live  |%s| peak %d threads (total footprint peak %s)\n",
		sparkline(p.bucketMax(width, func(s Sample) int64 { return int64(s.Live) })), maxLive, core.FormatBytes(totalHWM))
	return b.String()
}
