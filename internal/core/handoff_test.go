package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"spthreads/internal/leakcheck"
)

// lifoPolicy is a fork-first stack: OnCreate runs the child at once and
// the preempted parent waits on top of the ready stack, which is ADF's
// order on one processor without importing internal/sched. From its
// failAt-th Next call on it answers nil whatever is ready — a broken
// policy, for the fault path.
type lifoPolicy struct {
	fakePolicy
	ready  []*Thread
	nexts  int
	failAt int // 0: never fail
}

func (p *lifoPolicy) OnCreate(parent, child *Thread) bool {
	if parent == nil {
		p.ready = append(p.ready, child) // the root
		return false
	}
	return true
}

func (p *lifoPolicy) OnReady(t *Thread, pid int) { p.ready = append(p.ready, t) }

func (p *lifoPolicy) Next(pid int) *Thread {
	p.nexts++
	if len(p.ready) == 0 || p.nexts == p.failAt {
		return nil
	}
	t := p.ready[len(p.ready)-1]
	p.ready = p.ready[:len(p.ready)-1]
	return t
}

// forkJoinTree forks a binary tree of depth d below t and joins it.
func forkJoinTree(m *Machine, t *Thread, d int) {
	if d == 0 {
		return
	}
	l := m.Fork(t, Attr{}, Func(func(c *Thread) { forkJoinTree(m, c, d-1) }))
	r := m.Fork(t, Attr{}, Func(func(c *Thread) { forkJoinTree(m, c, d-1) }))
	for _, c := range []*Thread{l, r} {
		if err := m.Join(t, c); err != nil {
			panic(err)
		}
	}
}

// TestSimHandoffsPerThread is the simulator's twin of native's
// TestNoWorkerBetweenThreads: a thread that stops runs the scheduler
// itself and yields its successor, which the driver launches on a first
// run and resumes on a later one, so a fork/join tree costs at most a
// resume per join a thread waits in; a thread that keeps its processor
// across a quantum pause costs none. Carriers are reused: a coroutine is
// started only when every carrier holds a live thread, so launches stay
// within peak-live + 1.
func TestSimHandoffsPerThread(t *testing.T) {
	const depth = 10 // 2^11 - 1 threads with the root
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"fork-first", &lifoPolicy{}},
		{"fifo", fakePolicy{}},
	} {
		t.Run("tree/"+tc.name, func(t *testing.T) {
			m, err := New(Config{Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Execute(func(root *Thread) { forkJoinTree(m, root, depth) })
			if err != nil {
				t.Fatal(err)
			}
			if st.ThreadsCreated != 1<<(depth+1)-1 {
				t.Fatalf("created %d threads, want %d", st.ThreadsCreated, 1<<(depth+1)-1)
			}
			if m.resumes > 2*st.ThreadsCreated {
				t.Errorf("%d resumes for %d threads, want <= 2 per thread", m.resumes, st.ThreadsCreated)
			}
			if launches := m.carriers.Started(); launches > st.PeakLive+1 {
				t.Errorf("%d carrier launches for %d threads, peak live %d: want <= peak live + 1",
					launches, st.ThreadsCreated, st.PeakLive)
			}
		})
	}
	t.Run("quantum-pauses", func(t *testing.T) {
		const pauses = 10000
		for _, procs := range []int{1, 8} {
			m, err := New(Config{Procs: procs, Policy: &lifoPolicy{}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Execute(func(root *Thread) {
				for i := 0; i < pauses; i++ {
					m.Charge(root, int64(Quantum))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.steps < pauses {
				t.Errorf("p=%d: %d scheduling steps, want >= %d quantum pauses", procs, m.steps, pauses)
			}
			if m.resumes != 0 {
				t.Errorf("p=%d: %d resumes for one thread pausing %d times, want 0", procs, m.resumes, pauses)
			}
		}
	})
}

// TestMachineFaultPanicsExecute: a machine-invariant panic raised while a
// thread runs the scheduler is not that thread's panic. Execute re-raises
// it on the caller's goroutine after unwinding every parked thread.
func TestMachineFaultPanicsExecute(t *testing.T) {
	base := runtime.NumGoroutine()
	// Next #1 dispatches the root; each forked child runs at once and
	// blocks, and Next #2 hands the processor back to the root. Next #3,
	// on the second child's goroutine, answers nil with the root ready:
	// the root and the first child are parked, the second child faults.
	pol := &lifoPolicy{failAt: 3}
	m, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_, err := m.Execute(func(root *Thread) {
			for i := 0; i < 3; i++ {
				m.Fork(root, Attr{}, Func(func(c *Thread) { m.Park(c) }))
			}
		})
		t.Errorf("Execute returned (err = %v), want a panic", err)
		return nil
	}()
	if msg := fmt.Sprint(got); !strings.Contains(msg, "core: policy fake found no thread with 1 ready") {
		t.Errorf("Execute panicked with %q, want the policy fault", msg)
	}
	if m.err != nil {
		t.Errorf("machine fault recorded as a run error: %v", m.err)
	}
	leakcheck.AssertNoLeakedGoroutines(t, base)
}
