package native

// White-box tests for the tuned engine: pooled loop lifecycles,
// per-worker thread-record arenas, and pool-reuse hygiene. These run
// in-package so they can inspect recycled records and pool counters
// directly; the semantic (black-box) oracle is parity_test.go.

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/sched"
)

// newTestBackend builds a native backend directly on an ADF policy.
func newTestBackend(t *testing.T, engine string, procs int) *Backend {
	t.Helper()
	return newPolicyBackend(t, sched.ADF, Config{Procs: procs, Engine: engine})
}

// TestThreadRecordSize: a native thread is one heap object, the policy
// token inside it. The bound is the 352 B Go size class, one above the
// class the record occupies today (304 B, class 320): room for a field
// or two, not for a second object's worth.
func TestThreadRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(thread{}); got > 352 {
		t.Errorf("unsafe.Sizeof(thread{}) = %d, want <= 352", got)
	}
}

func TestEngineRegistry(t *testing.T) {
	want := []string{EngineReference, EngineTuned}
	got := Engines()
	if len(got) != len(want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Engines()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	pol, err := sched.New(sched.ADF, sched.Options{Procs: 1})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	if _, err := New(Config{Policy: pol, Engine: "turbo"}); err == nil {
		t.Fatalf("New accepted unknown engine %q", "turbo")
	}
	for _, id := range Engines() {
		b, err := New(Config{Policy: pol, Engine: id})
		if err != nil {
			t.Fatalf("New rejected registry engine %q: %v", id, err)
		}
		if b.Engine() != id {
			t.Fatalf("Engine() = %q, want %q", b.Engine(), id)
		}
	}
	// The empty id resolves to the reference engine.
	b, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if b.Engine() != EngineReference {
		t.Fatalf("default Engine() = %q, want %q", b.Engine(), EngineReference)
	}
}

// TestTunedChurnHygiene is the pool-reuse hygiene oracle: 10^5 threads
// forked and exited over 4 workers through the tuned arenas, with
// every recycled record inspected at entry for leaked prior state (TLS
// slots, join state, accounting, shard-heap slot) and every trace id
// checked unique. Run under -race this also exercises the Treiber
// free-list publication ordering.
func TestTunedChurnHygiene(t *testing.T) {
	const (
		procs    = 4
		churners = 8
		total    = 100_000
	)
	per := total / churners
	b := newTestBackend(t, EngineTuned, procs)

	type tlsKeyT struct{}
	var tlsKey tlsKeyT
	var ran, dirty atomic.Int64
	var ids sync.Map // id -> struct{}, duplicate detection
	var dupID atomic.Int64

	body := func(et exec.Thread) {
		tt := et.(*thread)
		// Entry-state fields written only by this thread's own lifetime
		// (or by fork before the launch handoff): any nonzero value here
		// leaked through a recycle. joiner/joined are deliberately NOT
		// checked — they are b.mu-guarded and a racing parent Join may
		// legitimately set them while the body runs.
		if tt.tls != nil || tt.done || tt.exitedSpan != 0 || tt.work != 0 ||
			tt.heapIdx != 0 || tt.heapPri != 0 || tt.isDummy {
			dirty.Add(1)
		}
		if tt.resume == nil {
			dirty.Add(1) // running without an adopted loop's mailbox
		}
		if tt.tok.Owner != any(tt) || tt.name != "" {
			dirty.Add(1) // the in-place token reset lost or kept identity
		}
		if et.TLSGet(tlsKey) != nil {
			dirty.Add(1)
		}
		if _, loaded := ids.LoadOrStore(et.ID(), struct{}{}); loaded {
			dupID.Add(1)
		}
		et.TLSSet(tlsKey, et.ID())
		ran.Add(1)
	}

	_, err := execute(t, b, func(root exec.Thread) {
		hs := make([]exec.Thread, 0, churners)
		for c := 0; c < churners; c++ {
			hs = append(hs, b.Fork(root, core.Attr{StackSize: core.SmallStackSize}, func(ct exec.Thread) {
				for i := 0; i < per; i++ {
					detached := i%2 == 0
					child := b.Fork(ct, core.Attr{StackSize: core.SmallStackSize, Detached: detached}, body)
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
	// The pool must actually pool: nearly every record recycles (the
	// joinable churners and children release both references before the
	// run ends; only the never-joined root leaks by design), and the
	// loop fleet stays near the concurrency level, orders of magnitude
	// below the thread count.
	if rec := b.pool.recycled.Load(); rec < total {
		t.Errorf("recycled %d records, want >= %d", rec, total)
	}
	if re := b.pool.reused.Load(); re == 0 {
		t.Errorf("no thread records served from the arenas")
	}
	if lc := b.pool.loopsCreated.Load(); lc > total/10 {
		t.Errorf("created %d loop goroutines for %d threads; pooling is not amortizing launches", lc, total)
	}
}

// TestTunedReferenceUntouched pins the reference engine to its
// original lifecycle: no pool is built and the per-thread mailbox is
// allocated at creation.
func TestTunedReferenceUntouched(t *testing.T) {
	b := newTestBackend(t, EngineReference, 2)
	if b.pool != nil || b.cells != nil {
		t.Fatalf("reference engine built tuned state: pool=%v cells=%v", b.pool, b.cells)
	}
	var sawChans atomic.Bool
	_, err := execute(t, b, func(root exec.Thread) {
		child := b.Fork(root, core.Attr{}, func(et exec.Thread) {})
		tt := child.(*thread)
		sawChans.Store(tt.resume != nil)
		if err := b.Join(root, child); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !sawChans.Load() {
		t.Errorf("reference engine thread created without its own mailbox")
	}
}
