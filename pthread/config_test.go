package pthread_test

// Config validation: Run must reject invalid configurations with a
// descriptive error instead of misbehaving at runtime. One test per
// rejection rule in newBackend.

import (
	"strings"
	"testing"

	"spthreads/pthread"
)

func mustReject(t *testing.T, cfg pthread.Config, want string) {
	t.Helper()
	_, err := pthread.Run(cfg, func(*pthread.T) {})
	if err == nil {
		t.Fatalf("Run accepted %+v, want error containing %q", cfg, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

func TestRejectNegativeProcs(t *testing.T) {
	mustReject(t, pthread.Config{Procs: -1}, "negative Procs")
}

func TestRejectUnknownPolicy(t *testing.T) {
	mustReject(t, pthread.Config{Policy: "fair-share"}, "fair-share")
}

func TestRejectUnknownBackend(t *testing.T) {
	mustReject(t, pthread.Config{Backend: "threads"}, `unknown Backend "threads"`)
}

func TestRejectBatchedModeWithoutBatchNexter(t *testing.T) {
	mustReject(t, pthread.Config{Policy: pthread.PolicyFIFO, SchedBatch: 8},
		"batch-capable policy")
}

func TestRejectNativeBatchedMode(t *testing.T) {
	// The batched Q_in/Q_out scheduler is simulated only; on native
	// the sharded store is what splits the scheduler lock.
	mustReject(t, pthread.Config{Backend: pthread.BackendNative, Policy: pthread.PolicyADF, SchedBatch: 8},
		"sim-only")
}

func TestRejectNativeDequePolicies(t *testing.T) {
	// WS and DFD keep per-processor deques; the native ready store
	// orders only fifo, lifo and the adf family.
	for _, pol := range []pthread.Policy{pthread.PolicyWS, pthread.PolicyDFD} {
		mustReject(t, pthread.Config{Backend: pthread.BackendNative, Policy: pol}, "sim-only")
	}
}

func TestRejectNativeMaxSteps(t *testing.T) {
	// The step bound counts simulated dispatches; a native run would
	// otherwise ignore it and run unbounded.
	mustReject(t, pthread.Config{Backend: pthread.BackendNative, MaxSteps: 100}, "sim-only")
}

func TestBatchOfOneDegeneratesToDirect(t *testing.T) {
	// SchedBatch = 1 is the direct scheduler, so any policy is
	// acceptable.
	cfg := pthread.Config{Policy: pthread.PolicyFIFO, SchedBatch: 1}
	if _, err := pthread.Run(cfg, func(*pthread.T) {}); err != nil {
		t.Fatalf("SchedBatch=1 rejected: %v", err)
	}
}

func TestRejectNegativeNumbers(t *testing.T) {
	// No size or count has a meaning below zero; on either
	// backend a negative one is an error rather than a silent "off"
	// (MemQuota -1 would disable ADF's quota and dummy throttling).
	for _, tc := range []struct {
		field string
		cfg   pthread.Config
	}{
		{"Procs", pthread.Config{Procs: -1}},
		{"MemQuota", pthread.Config{MemQuota: -1}},
		{"DefaultStack", pthread.Config{DefaultStack: -1}},
		{"MaxSteps", pthread.Config{MaxSteps: -1}},
		{"SchedBatch", pthread.Config{SchedBatch: -1}},
		{"StealWindow", pthread.Config{Policy: pthread.PolicyADFShard, StealWindow: -1}},
	} {
		for _, backend := range []pthread.Backend{pthread.BackendSim, pthread.BackendNative} {
			t.Run(tc.field+"/"+string(backend), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Backend = backend
				mustReject(t, cfg, "negative "+tc.field)
			})
		}
	}
}

func TestNativeTracerAccepted(t *testing.T) {
	// Lifting the old blanket rejection: a native run with a Tracer
	// attached records a wall-ns event stream ending in a clean run-end.
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := pthread.Config{Backend: pthread.BackendNative, Procs: 2, Tracer: rec}
	if _, err := pthread.Run(cfg, func(t *pthread.T) { t.Charge(100) }); err != nil {
		t.Fatalf("native run with Tracer rejected: %v", err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestEmptyConfigDefaults(t *testing.T) {
	// The zero Config runs: 1 proc, ADF, sim backend, direct mode.
	st, err := pthread.Run(pthread.Config{}, func(t *pthread.T) { t.Charge(100) })
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if st.Policy != string(pthread.PolicyADF) {
		t.Errorf("default policy = %q, want adf", st.Policy)
	}
}
