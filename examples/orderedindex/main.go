// Command orderedindex uses the chromatic tree as a concurrent time-series
// index: writer goroutines append timestamped samples while reader
// goroutines run windowed range queries (via Successor) and point lookups
// over the most recent data — the classic "index under a write-heavy feed"
// workload that motivates concurrent balanced search trees.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chromatic"
)

const (
	writers       = 3
	readers       = 3
	samplesPerSec = 50_000
	runFor        = 2 * time.Second
	windowSize    = 1_000 // logical time units per window query
)

func main() {
	index := chromatic.NewOrdered[int64, int64](chromatic.WithAllowedViolations(6))
	var clock atomic.Int64 // logical timestamp generator
	var wrote, scanned atomic.Int64

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: each sample is keyed by a unique logical timestamp; the value
	// encodes the sensor reading.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := clock.Add(1)
				reading := rng.Int63n(1000)
				index.Insert(ts, reading)
				wrote.Add(1)
			}
		}(w)
	}

	// Readers: scan the most recent window and compute an aggregate, and
	// occasionally evict everything older than ten windows to keep the
	// index bounded (a retention policy).
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := clock.Load()
				lo := now - windowSize
				if lo < 0 {
					lo = 0
				}
				var sum, count int64
				index.RangeScan(lo, now, func(k, v int64) bool {
					sum += v
					count++
					return true
				})
				scanned.Add(count)
				if r == 0 && now > 10*windowSize {
					// Retention: delete a batch of the oldest samples.
					cutoff := now - 10*windowSize
					k, _, ok := index.Min()
					for ok && k < cutoff {
						index.Delete(k)
						k, _, ok = index.Successor(k)
					}
				}
			}
		}(r)
	}

	time.Sleep(runFor)
	close(stop)
	wg.Wait()

	fmt.Printf("ingested %d samples, scanned %d samples in window queries\n", wrote.Load(), scanned.Load())
	fmt.Printf("index now holds %d samples, height %d\n", index.Size(), index.Height())
	if err := index.CheckInvariants(); err != nil {
		fmt.Printf("invariant violation: %v\n", err)
		return
	}
	min, _, _ := index.Min()
	max, _, _ := index.Max()
	fmt.Printf("retained window: [%d, %d]\n", min, max)
}
