package native

// White-box tests for the thread lifecycle: pooled carriers, per-worker
// thread-record arenas, and pool-reuse hygiene. These run
// in-package so they can inspect recycled records and pool counters
// directly; the semantic (black-box) oracle is parity_test.go.

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"spthreads/internal/core"
)

// newTestBackend builds a native backend directly on an ADF policy.
func newTestBackend(t *testing.T, procs int) *Backend {
	t.Helper()
	return newPolicyBackend(t, "adf", Config{Procs: procs})
}

// TestThreadRecordSize: a native thread is one heap object, the policy
// token inside it. The bound is the 256 B Go size class, two above the
// class the record occupies today (216 B, class 224): room for a field
// or two, not for a second object's worth.
func TestThreadRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(thread{}); got > 256 {
		t.Errorf("unsafe.Sizeof(thread{}) = %d, want <= 256", got)
	}
}

// TestChurnHygiene is the pool-reuse hygiene oracle: 10^5 threads
// forked and exited over 4 workers through the record arenas, with
// every recycled record inspected at entry for leaked prior state (TLS
// slots, join state, accounting) and every trace id
// checked unique. Run under -race this also exercises the Treiber
// free-list publication ordering.
func TestChurnHygiene(t *testing.T) {
	const (
		procs    = 4
		churners = 8
		total    = 100_000
	)
	per := total / churners
	b := newTestBackend(t, procs)

	type tlsKeyT struct{}
	var tlsKey tlsKeyT
	var ran, dirty atomic.Int64
	var ids sync.Map  // id -> struct{}, duplicate detection
	var recs sync.Map // record address -> struct{}, reuse detection
	var dupID atomic.Int64

	body := func(et core.Handle) {
		tt := et.(*thread)
		// Entry-state fields written only by this thread's own lifetime
		// (or by fork before the launch handoff): any nonzero value here
		// leaked through a recycle. The join word may legitimately hold
		// the parent, which registers while the body runs, but never an
		// exit mark.
		w := tt.join.Load()
		if tt.tls != nil || w == exitedMark || w == joinedMark || tt.exitedSpan != 0 || tt.work != 0 || tt.isDummy {
			dirty.Add(1)
		}
		if tt.carrier == nil {
			dirty.Add(1) // running without a bound carrier
		}
		if tt.name != "" {
			dirty.Add(1) // the in-place reset kept the prior name
		}
		if et.TLSGet(tlsKey) != nil {
			dirty.Add(1)
		}
		if _, loaded := ids.LoadOrStore(et.ID(), struct{}{}); loaded {
			dupID.Add(1)
		}
		recs.Store(uintptr(unsafe.Pointer(tt)), struct{}{})
		et.TLSSet(tlsKey, et.ID())
		ran.Add(1)
	}

	_, err := execute(t, b, func(root core.Handle) {
		hs := make([]core.Handle, 0, churners)
		for c := 0; c < churners; c++ {
			hs = append(hs, forkFn(b, root, core.Attr{StackSize: core.SmallStackSize}, func(ct core.Handle) {
				for i := 0; i < per; i++ {
					detached := i%2 == 0
					child := forkFn(b, ct, core.Attr{StackSize: core.SmallStackSize, Detached: detached}, body)
					if !detached {
						if err := b.Join(ct, child); err != nil {
							panic(err)
						}
					}
				}
			}))
		}
		for _, h := range hs {
			if err := b.Join(root, h); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if n := ran.Load(); n != total {
		t.Errorf("ran %d children, want %d", n, total)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("%d recycled records leaked prior state into a fresh thread", n)
	}
	if n := dupID.Load(); n != 0 {
		t.Errorf("%d duplicate thread ids (record double-recycled?)", n)
	}
	// The pool must actually pool: the children ran on a few records
	// recycled through the arenas, and the carrier fleet stays near the
	// concurrency level, both orders of magnitude below the thread count.
	distinct := 0
	recs.Range(func(any, any) bool { distinct++; return true })
	if distinct > total/10 {
		t.Errorf("%d distinct records for %d threads; the arenas are not recycling", distinct, total)
	}
	if lc := b.carriers.Started(); lc > total/10 {
		t.Errorf("started %d carrier goroutines for %d threads; pooling is not amortizing launches", lc, total)
	}
}
