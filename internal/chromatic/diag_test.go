package chromatic

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDiagnoseContention is a watchdog-style test used while developing the
// concurrent algorithm: it runs a contended workload and fails with a
// progress report if throughput collapses, instead of hanging.
func TestDiagnoseContention(t *testing.T) {
	tr := New()
	const goroutines = 16
	const opsPerG = 10000
	const keyRange = 32
	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				key := rng.Int63n(keyRange)
				switch rng.Intn(3) {
				case 0:
					tr.Insert(key, key)
				case 1:
					tr.Delete(key)
				default:
					tr.Get(key)
				}
				completed.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	last := int64(0)
	for {
		select {
		case <-done:
			if err := tr.CheckRedBlack(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			return
		case <-tick.C:
			cur := completed.Load()
			s := tr.Stats()
			t.Logf("progress: %d ops done (+%d), rebalance=%d rebalanceAttempts=%d rebalanceFails=%d",
				cur, cur-last, s.RebalanceTotal(), s.RebalanceAttempts.Load(), s.RebalanceFails.Load())
			last = cur
		case <-deadline:
			cur := completed.Load()
			s := tr.Stats()
			var dump strings.Builder
			for k := int64(0); k < keyRange; k++ {
				path := tr.DebugPath(k)
				if strings.Contains(path, "finalized=true") {
					fmt.Fprintf(&dump, "--- search path for key %d contains a finalized node:\n%s", k, path)
				}
			}
			t.Fatalf("stalled: %d/%d ops, rebalance=%d attempts=%d fails=%d violations=%d\n%s",
				cur, goroutines*opsPerG, s.RebalanceTotal(), s.RebalanceAttempts.Load(), s.RebalanceFails.Load(), tr.CountViolations(), dump.String())
		}
	}
}
