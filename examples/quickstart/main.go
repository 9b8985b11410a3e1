// Command quickstart demonstrates basic use of the non-blocking chromatic
// tree as a concurrent ordered map: concurrent insertions, lookups,
// deletions and ordered queries from many goroutines, followed by a check of
// the balance invariants.
package main

import (
	"fmt"
	"sync"

	"repro/internal/chromatic"
)

func main() {
	// chromatic.NewOrdered[int64, int64](chromatic.WithAllowedViolations(6))
	// builds the relaxed Chromatic6 variant instead.
	tree := chromatic.New()

	// Populate the dictionary from several goroutines at once. Every
	// operation is linearizable and non-blocking, so no external locking is
	// needed.
	var wg sync.WaitGroup
	const workers = 4
	const perWorker = 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := int64(w*perWorker + i)
				tree.Insert(key, key*key)
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("inserted %d keys, height %d, balanced: %v\n",
		tree.Size(), tree.Height(), tree.CheckRedBlack() == nil)

	// Point lookups.
	if v, ok := tree.Get(12345); ok {
		fmt.Printf("Get(12345) = %d\n", v)
	}

	// Ordered queries: successor, predecessor and a small range scan.
	if k, v, ok := tree.Successor(99); ok {
		fmt.Printf("Successor(99) = %d -> %d\n", k, v)
	}
	if k, _, ok := tree.Predecessor(100); ok {
		fmt.Printf("Predecessor(100) = %d\n", k)
	}
	fmt.Print("keys in [10, 15]:")
	tree.RangeScan(10, 15, func(k, v int64) bool {
		fmt.Printf(" %d", k)
		return true
	})
	fmt.Println()

	// Concurrent deletions of the even keys.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i += 2 {
				tree.Delete(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("after deleting even keys: %d keys remain, still balanced: %v\n",
		tree.Size(), tree.CheckRedBlack() == nil)

	// Update statistics show how much rebalancing the tree performed.
	s := tree.Stats()
	fmt.Printf("rebalancing steps performed: %d\n", s.RebalanceTotal())
}
