package trace

import (
	"sync"
	"testing"

	"spthreads/internal/vtime"
)

// These tests cover the incremental-drain half of the ring protocol:
// a consumer draining slots while producers are still recording.

// TestRingDrainWraps: a ring far smaller than the event stream loses
// nothing when a drainer keeps up — the whole point of incremental
// drain — and the drained sequence preserves append order through
// arbitrary wraparound.
func TestRingDrainWraps(t *testing.T) {
	g := NewRing(8)
	var got []Event
	for i := 0; i < 1000; i++ {
		g.Record(vtime.Time(i), 0, int64(i), KindWake, 0)
		if i%5 == 0 {
			got = g.Drain(got)
		}
	}
	got = g.Drain(got)
	if g.Dropped() != 0 {
		t.Fatalf("dropped = %d with an attentive drainer, want 0", g.Dropped())
	}
	if len(got) != 1000 {
		t.Fatalf("drained %d events, want 1000", len(got))
	}
	for i, e := range got {
		if e.Thread != int64(i) {
			t.Fatalf("drain reordered: slot %d holds thread %d", i, e.Thread)
		}
	}
	if evs := g.Events(); len(evs) != 0 {
		t.Fatalf("Events() after full drain = %d, want 0", len(evs))
	}
}

// TestRingDrainRacingRecord: the drain protocol is race-clean against
// concurrent producers (run under -race in CI), and recorded+dropped
// accounting stays exact: every event is drained exactly once or
// counted dropped.
func TestRingDrainRacingRecord(t *testing.T) {
	const producers, each = 4, 5000
	g := NewRing(64) // tiny: force constant wraparound and some drops
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				g.Record(vtime.Time(i), p, int64(p*each+i), KindWake, 0)
			}
		}(p)
	}
	var drained []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			drained = g.Drain(drained)
			select {
			case <-stopAfter(&wg):
				drained = g.Drain(drained)
				return
			default:
			}
		}
	}()
	<-done
	if got := int64(len(drained)) + g.Dropped(); got != producers*each {
		t.Fatalf("drained+dropped = %d, want %d", got, producers*each)
	}
	seen := make(map[int64]bool, len(drained))
	for _, e := range drained {
		if seen[e.Thread] {
			t.Fatalf("thread %d drained twice", e.Thread)
		}
		seen[e.Thread] = true
	}
}

// stopAfter adapts a WaitGroup to a select-able channel; closed once
// the group is done.
func stopAfter(wg *sync.WaitGroup) chan struct{} {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	return ch
}

// TestRingDrainedRecordAllocationFree: the hot-path write cost is
// unchanged by the drain protocol — Record never allocates, drained or
// not (the ISSUE-8 AllocsPerRun acceptance assertion).
func TestRingDrainedRecordAllocationFree(t *testing.T) {
	g := NewRing(1 << 12)
	var buf []Event
	allocs := testing.AllocsPerRun(1000, func() {
		g.Record(42, 0, 7, KindDispatch, 0)
		buf = g.Drain(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Record+Drain allocates %.1f per call, want 0", allocs)
	}
}
