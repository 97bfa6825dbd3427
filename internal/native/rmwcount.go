//go:build rmwcount

package native

import "sync/atomic"

// sharedRMWs counts read-modify-writes on run-global words: countRMW
// marks each on nextID, total, idleA and the sequence-order counter.
var sharedRMWs atomic.Int64

func countRMW() { sharedRMWs.Add(1) }
