package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"spthreads/internal/vtime"
)

// White-box tests for the machine's internal data structures.

func TestTimeHeapOrdering(t *testing.T) {
	var h timeHeap
	in := []vtime.Time{5, 1, 9, 3, 3, 7, 0, 2}
	for _, v := range in {
		h.push(v)
	}
	if h.len() != len(in) {
		t.Fatalf("len = %d, want %d", h.len(), len(in))
	}
	prev := vtime.Time(-1)
	for h.len() > 0 {
		if h.min() < prev {
			t.Fatalf("min %d < previous pop %d", h.min(), prev)
		}
		v := h.pop()
		if v < prev {
			t.Fatalf("pop %d < previous %d", v, prev)
		}
		prev = v
	}
}

// TestTimeHeapProperty: pops come out sorted for arbitrary inputs.
func TestTimeHeapProperty(t *testing.T) {
	f := func(vals []int32) bool {
		var h timeHeap
		for _, v := range vals {
			h.push(vtime.Time(v))
		}
		prev := vtime.Time(-1 << 40)
		for h.len() > 0 {
			v := h.pop()
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContentionWindow(t *testing.T) {
	c := newContention(vtime.Micro(2), vtime.Micro(100))
	// First op in a window: free.
	if w := c.wait(vtime.Time(vtime.Micro(10))); w != 0 {
		t.Errorf("first op waited %v", w)
	}
	// Second overlapping op queues behind the first.
	if w := c.wait(vtime.Time(vtime.Micro(20))); w != vtime.Micro(2) {
		t.Errorf("second op waited %v, want 2us", w)
	}
	// Third waits behind two.
	if w := c.wait(vtime.Time(vtime.Micro(30))); w != vtime.Micro(4) {
		t.Errorf("third op waited %v, want 4us", w)
	}
	// An op in a different window is free again.
	if w := c.wait(vtime.Time(vtime.Micro(250))); w != 0 {
		t.Errorf("new-window op waited %v", w)
	}
	// Waits are capped at the window length.
	for i := 0; i < 100; i++ {
		c.wait(vtime.Time(vtime.Micro(260)))
	}
	if w := c.wait(vtime.Time(vtime.Micro(270))); w > vtime.Micro(100) {
		t.Errorf("wait %v exceeds window cap", w)
	}
}

func TestContentionPrune(t *testing.T) {
	c := newContention(vtime.Micro(1), vtime.Micro(100))
	for i := 0; i < 50; i++ {
		c.wait(vtime.Time(vtime.Micro(float64(i * 150))))
	}
	// 50 ops, 1.5 windows apart: the model holds windows 0 … 73, the
	// empty ones between them included.
	if c.size() != 74 {
		t.Fatalf("size = %d, want 74", c.size())
	}
	c.prune(vtime.Time(vtime.Micro(40 * 150)))
	if c.size() >= 74 {
		t.Errorf("prune removed nothing (size %d)", c.size())
	}
	// Windows at/after the horizon survive.
	if c.size() < 10 {
		t.Errorf("prune removed live windows (size %d)", c.size())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateNew:     "new",
		StateReady:   "ready",
		StateRunning: "running",
		StateBlocked: "blocked",
		StateExited:  "exited",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KB",
		3 << 20: "3.00MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without a policy should fail")
	}
}

func TestMachineSingleUse(t *testing.T) {
	m, err := New(Config{Policy: fakePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(func(Handle) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(func(Handle) {}); err == nil {
		t.Error("second Execute should fail")
	}
}

// fakePolicy is a minimal FIFO used to exercise the machine without the
// sched package (which would be an import cycle from this test).
type fakePolicy struct{}

var fakeQueue []*Thread

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) Global() bool { return false }

func (fakePolicy) OnCreate(parent, child *Thread) bool {
	fakeQueue = append(fakeQueue, child)
	return false
}

func (fakePolicy) OnReady(t *Thread, pid int) { fakeQueue = append(fakeQueue, t) }
func (fakePolicy) OnBlock(*Thread)            {}
func (fakePolicy) OnExit(*Thread)             {}

func (fakePolicy) Next(pid int) *Thread {
	if len(fakeQueue) == 0 {
		return nil
	}
	t := fakeQueue[0]
	fakeQueue = fakeQueue[1:]
	return t
}

// TestThreadHeaderSize: the policy-visible header is embedded by value
// in every native thread record, so each word added here is paid once
// per lightweight thread on both backends. 96 B is a Go size class: a
// bare token (&Thread{ID: n}) stays in it, and the simulator's record,
// header included (240 B today), fits the 240 B class.
func TestThreadHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Thread{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Thread{}) = %d, want <= 96", got)
	}
	if got := unsafe.Sizeof(simState{}); got > 240 {
		t.Errorf("unsafe.Sizeof(simState{}) = %d, want <= 240", got)
	}
}

// TestRecycledRecordStartsClean: a joined thread's record is recycled
// for the next fork, and the new thread starts clean. It has a fresh ID,
// no TLS, joiner, carrier or SchedState, a zero exitedSpan, and clear
// flags. Only the machine pointer carries over.
func TestRecycledRecordStartsClean(t *testing.T) {
	fakeQueue = nil
	m, err := New(Config{Policy: fakePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	entry := new(int) // stands in for a policy's placeholder
	_, err = m.Execute(func(root Handle) {
		a := m.Fork(root, Attr{Name: "a"}, Func(func(c Handle) {
			c.TLSSet("k", 1)
			rec(c).SchedState = entry
			m.Charge(c, 1000)
		}))
		aID := a.ID()
		// The fake policy queues a, so root joins before it runs: a's
		// exit wakes root as the joiner.
		if err := m.Join(root, a); err != nil {
			t.Error(err)
			return
		}
		hb := m.Fork(root, Attr{}, Func(func(Handle) {}))
		b := rec(hb)
		switch {
		case hb != a:
			t.Errorf("the joined record was not reused")
		case b.ID == aID || b.Name() != fmt.Sprintf("thread-%d", b.ID):
			t.Errorf("reused record kept a's identity: ID %d, name %q", b.ID, b.Name())
		case b.tls != nil || b.joiner != nil || b.carrier != nil || b.proc != nil:
			t.Errorf("reused record kept state: TLS %v, joiner %v, carrier %v, proc %v", b.tls, b.joiner, b.carrier, b.proc)
		case b.exitedSpan != 0 || b.done || b.joined || b.started || b.attr.Detached || b.attr.Name != "" || b.isDummy:
			t.Errorf("reused record kept exit state: exitedSpan %d, done %v, joined %v, started %v", b.exitedSpan, b.done, b.joined, b.started)
		case b.refs != 2 || b.state != StateReady:
			t.Errorf("reused record: refs %d, state %v, want 2, ready", b.refs, b.state)
		case b.SchedState != nil || b.m != m:
			t.Errorf("reused record: SchedState %v, machine kept %v", b.SchedState, b.m == m)
		}
		if err := m.Join(root, hb); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
