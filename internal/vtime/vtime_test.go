package vtime_test

import (
	"strings"
	"testing"
	"testing/quick"

	"spthreads/internal/vtime"
)

func TestMicroRoundTrip(t *testing.T) {
	if got := vtime.Micro(1); got != vtime.CyclesPerMicrosecond {
		t.Errorf("Micro(1) = %d, want %d", got, vtime.CyclesPerMicrosecond)
	}
	if got := vtime.Micro(20.5).Microseconds(); got < 20.49 || got > 20.51 {
		t.Errorf("round trip of 20.5us = %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		us   float64
		want string
	}{
		{3, "us"},
		{1500, "ms"},
		{2.5e6, "s"},
	}
	for _, c := range cases {
		s := vtime.Micro(c.us).String()
		if !strings.HasSuffix(s, c.want) {
			t.Errorf("Micro(%v).String() = %q, want suffix %q", c.us, s, c.want)
		}
	}
}

func TestDefaultCostsPositive(t *testing.T) {
	cm := vtime.Default()
	for name, d := range map[string]vtime.Duration{
		"ThreadCreate":   cm.ThreadCreate,
		"ThreadJoin":     cm.ThreadJoin,
		"SemaSync":       cm.SemaSync,
		"SyncOp":         cm.SyncOp,
		"ContextSwitch":  cm.ContextSwitch,
		"StackAllocBase": cm.StackAllocBase,
		"StackAllocMax":  cm.StackAllocMax,
		"SchedLockOp":    cm.SchedLockOp,
		"MallocBase":     cm.MallocBase,
		"BrkSyscall":     cm.BrkSyscall,
		"PageMap":        cm.PageMap,
		"PageFirstTouch": cm.PageFirstTouch,
		"TLBMiss":        cm.TLBMiss,
		// The machine uses these directly, with no zero fallback.
		"SchedLocalOp":         cm.SchedLocalOp,
		"SchedBatchMove":       cm.SchedBatchMove,
		"SchedLockWindow":      cm.SchedLockWindow,
		"SchedShardLockOp":     cm.SchedShardLockOp,
		"SchedShardLockWindow": cm.SchedShardLockWindow,
		"SchedStealProbe":      cm.SchedStealProbe,
		"HeapLockWindow":       cm.HeapLockWindow,
		"KernelLockOp":         cm.KernelLockOp,
		"KernelLockWindow":     cm.KernelLockWindow,
	} {
		if d <= 0 {
			t.Errorf("%s = %d, want > 0", name, d)
		}
	}
	// The paper's Figure 3 value (integer cycle truncation allowed).
	if got := cm.ThreadCreate.Microseconds(); got < 20.49 || got > 20.51 {
		t.Errorf("ThreadCreate = %v us, want ~20.5", got)
	}
}

// TestStackAllocMonotone (property): stack allocation cost never
// decreases with size and interpolates between the paper's endpoints.
func TestStackAllocMonotone(t *testing.T) {
	cm := vtime.Default()
	f := func(a, b uint32) bool {
		x, y := int64(a%(2<<20))+1, int64(b%(2<<20))+1
		if x > y {
			x, y = y, x
		}
		return cm.StackAlloc(x) <= cm.StackAlloc(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := cm.StackAlloc(4 << 10); got != cm.StackAllocBase {
		t.Errorf("StackAlloc(4KB) = %v, want base %v", got, cm.StackAllocBase)
	}
	if got := cm.StackAlloc(4 << 20); got != cm.StackAllocMax {
		t.Errorf("StackAlloc(4MB) = %v, want max %v", got, cm.StackAllocMax)
	}
}
