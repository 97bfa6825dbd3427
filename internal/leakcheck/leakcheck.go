// Package leakcheck is the goroutine-leak check the test suites share:
// every terminal path of a run (clean exit, panic, deadlock, Exit from
// depth, unjoined threads) must leave no goroutine behind.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// AssertNoLeakedGoroutines fails t unless the goroutine count returns
// to base — runtime.NumGoroutine() taken before the code under test
// started — within two seconds. It polls because goroutines that have
// been told to stop still need a moment to unwind.
func AssertNoLeakedGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutines leaked: %d before, %d after\n%s", base, n, buf)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
