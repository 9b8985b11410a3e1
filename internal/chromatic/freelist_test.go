package chromatic

import (
	"runtime"
	"testing"
)

// TestFreeListChurnAllocs churns a 10^4-key chromatic tree from one
// goroutine - delete a present key, insert it again - and counts the heap
// allocations of the steady state: every node and value cell an update builds
// comes off the free list of the goroutine's epoch slot, where the grace
// periods of earlier updates' removals put them, and SCX argument blocks are
// rewritten in place, so fewer than one update in a hundred allocates.
func TestFreeListChurnAllocs(t *testing.T) {
	const keys, warm, timed = 10_000, 40_000, 40_000
	key := func(i int) int64 { return int64(i * 7919 % keys) } // 7919 is prime to keys
	tr := New()
	for i := range keys {
		tr.Insert(key(i), int64(i))
	}
	churn := func(from, n int) {
		for i := from; i < from+n; i++ {
			k := key(i % keys)
			tr.Delete(k)
			tr.Insert(k, int64(i))
		}
	}
	churn(0, warm/2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(warm/2, timed/2)
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.Mallocs-before.Mallocs) / timed
	if perUpdate >= 0.01 {
		t.Errorf("steady-state churn allocates %.4f objects per update, want < 0.01", perUpdate)
	}
	t.Logf("%.4f allocations per update over %d updates", perUpdate, timed)
}
