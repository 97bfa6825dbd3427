package spaceprof_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spthreads/internal/spaceprof"
	"spthreads/internal/vtime"
)

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *spaceprof.Profiler
	p.Sample(0, 1, 2, 3) // must not panic
	if s := p.Samples(); s != nil {
		t.Errorf("nil profiler samples = %v", s)
	}
}

func TestKeepEveryObservation(t *testing.T) {
	p := spaceprof.New(0)
	for i := 0; i < 10; i++ {
		p.Sample(vtime.Time(i*100), int64(i), int64(10-i), i)
	}
	if got := len(p.Samples()); got != 10 {
		t.Errorf("kept %d samples, want 10", got)
	}
	heap, stack, total := p.HWM()
	if heap != 9 || stack != 10 || total != 10 {
		t.Errorf("HWM = (%d,%d,%d), want (9,10,10)", heap, stack, total)
	}
}

// TestCoalescingKeepsPeaks: with an interval, each interval retains its
// peak-total sample, so spikes survive coalescing.
func TestCoalescingKeepsPeaks(t *testing.T) {
	p := spaceprof.New(vtime.Duration(1000))
	// Interval 0: levels 5 then spike 100 then 7.
	p.Sample(10, 5, 0, 1)
	p.Sample(20, 100, 0, 1)
	p.Sample(30, 7, 0, 1)
	// Interval 1: one sample.
	p.Sample(1500, 50, 0, 1)
	got := p.Samples()
	if len(got) != 2 {
		t.Fatalf("kept %d samples, want 2: %+v", len(got), got)
	}
	if got[0].Heap != 100 {
		t.Errorf("interval 0 kept heap %d, want the 100 spike", got[0].Heap)
	}
	if got[1].Heap != 50 {
		t.Errorf("interval 1 kept heap %d, want 50", got[1].Heap)
	}
}

func TestCSVAndJSON(t *testing.T) {
	p := spaceprof.New(0)
	p.Sample(167, 1024, 2048, 3)
	var csv bytes.Buffer
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines, want header+1:\n%s", len(lines), csv.String())
	}
	if lines[0] != "t_cycles,t_us,heap_bytes,stack_bytes,total_bytes,live_threads" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "167,1.000,1024,2048,3072,3" {
		t.Errorf("csv row = %q", lines[1])
	}

	js, err := json.Marshal(p.Samples())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatalf("json: %v", err)
	}
	if len(decoded) != 1 || decoded[0]["heap_bytes"].(float64) != 1024 {
		t.Errorf("json = %v", decoded)
	}
}

func TestDownsample(t *testing.T) {
	p := spaceprof.New(0)
	for i := 0; i < 1000; i++ {
		h := int64(i % 97)
		if i == 500 {
			h = 1 << 20 // the spike must survive
		}
		p.Sample(vtime.Time(i), h, 0, 1)
	}
	ds := p.Downsample(10)
	if len(ds) > 10 {
		t.Errorf("downsampled to %d points, want <= 10", len(ds))
	}
	var peak int64
	for _, s := range ds {
		if s.Heap > peak {
			peak = s.Heap
		}
	}
	if peak != 1<<20 {
		t.Errorf("downsample lost the peak: max heap %d", peak)
	}
	// Small series pass through untouched.
	if got := spaceprof.New(0); len(got.Downsample(10)) != 0 {
		t.Error("empty profiler downsample not empty")
	}
}

func TestCurvesRenders(t *testing.T) {
	p := spaceprof.New(0)
	for i := 0; i < 50; i++ {
		p.Sample(vtime.Time(i*1000), int64(i*100), int64(8<<10), 1+i%4)
	}
	out := p.Curves(40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("curves = %d lines, want 3:\n%s", len(lines), out)
	}
	for _, prefix := range []string{"heap ", "stack", "live "} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q row:\n%s", prefix, out)
		}
	}
	if !strings.Contains(out, "peak") {
		t.Errorf("curves missing peak annotation:\n%s", out)
	}
	if got := spaceprof.New(0).Curves(10); got != "(no samples)\n" {
		t.Errorf("empty curves = %q", got)
	}
}
