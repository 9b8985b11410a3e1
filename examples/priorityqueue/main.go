// Command priorityqueue builds a concurrent priority scheduler on top of the
// chromatic tree's ordered-dictionary interface: producers enqueue jobs with
// integer priorities and consumers repeatedly extract the minimum-priority
// job using Min + Delete. This is exactly the priority-queue application the
// chromatic tree literature (Boyar, Fagerberg and Larsen) motivates for
// relaxed-balance search trees.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

import "repro/internal/chromatic"

const (
	producers     = 3
	consumers     = 3
	jobsPerSource = 20_000
)

// jobKey packs (priority, sequence) into one int64 key so that jobs with
// equal priority remain distinct and FIFO-ordered within a priority class.
func jobKey(priority int64, seq int64) int64 {
	return priority<<32 | (seq & 0xffffffff)
}

func priorityOf(key int64) int64 { return key >> 32 }

func main() {
	queue := chromatic.NewOrdered[int64, int64](chromatic.WithAllowedViolations(6))
	var seq atomic.Int64
	var produced, consumed atomic.Int64
	var priorityInversions atomic.Int64

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Producers enqueue jobs with random priorities (lower = more urgent).
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < jobsPerSource; i++ {
				prio := rng.Int63n(100)
				key := jobKey(prio, seq.Add(1))
				queue.Insert(key, int64(p)) // value records the producer
				produced.Add(1)
			}
		}(p)
	}

	// Consumers repeatedly extract the globally smallest key. A Min/Delete
	// pair can race with another consumer, in which case Delete reports the
	// job as already taken and the consumer simply retries.
	var consumerWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumerWG.Add(1)
		go func(c int) {
			defer consumerWG.Done()
			var lastPrio int64 = -1
			for {
				key, _, ok := queue.Min()
				if !ok {
					select {
					case <-done:
						return
					default:
						continue // queue momentarily empty; producers still running
					}
				}
				if _, won := queue.Delete(key); !won {
					continue // another consumer took this job first
				}
				consumed.Add(1)
				prio := priorityOf(key)
				// Priorities extracted by one consumer should mostly be
				// non-decreasing; count the exceptions caused by late
				// arrivals of urgent jobs (expected while producers run).
				if prio < lastPrio {
					priorityInversions.Add(1)
				}
				lastPrio = prio
			}
		}(c)
	}

	wg.Wait()   // producers done
	close(done) // let consumers drain and exit
	consumerWG.Wait()

	// Drain anything the consumers left behind after the done signal.
	for {
		key, _, ok := queue.Min()
		if !ok {
			break
		}
		if _, won := queue.Delete(key); won {
			consumed.Add(1)
		}
	}

	fmt.Printf("produced %d jobs, consumed %d jobs, queue now holds %d\n",
		produced.Load(), consumed.Load(), queue.Size())
	fmt.Printf("priority inversions observed by consumers (due to late urgent arrivals): %d\n",
		priorityInversions.Load())
	if produced.Load() != consumed.Load() {
		fmt.Println("ERROR: some jobs were lost or double-consumed")
	} else {
		fmt.Println("all jobs consumed exactly once")
	}
	if err := queue.CheckInvariants(); err != nil {
		fmt.Printf("ERROR: queue invariants violated: %v\n", err)
	}
}
