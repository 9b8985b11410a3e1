package main

import "time"

// Host calibration. This box shares its cores with other tenants and its
// speed drifts by tens of percent over minutes: ten runs of scan-10k read
// 188 k to 247 k ops/s, rising steadily, with every latency falling in step.
// The drift is common to everything that runs, so every end-to-end time is
// reported relative to a calibration operation timed in the same run, in
// slices between the windows and with the same estimator as the metrics.
// That halved the spread between runs of the same code (README, "Host
// calibration"). The calibration is code the benchmark owns and no other
// change may edit: a binary search for a uniform key among calibKeys sorted
// keys, about as long as a Get on a 10^4-key tree and, like it, bound by
// dependent loads and mispredicted branches.
const (
	calibKeys = 5000
	// calibSlice is the searches per slice and worker: about 4 ms.
	calibSlice = 50_000
	// calibRefNs fixes the scale: calibrated numbers are what the run would
	// have read on a host where one search takes this long, which is what it
	// takes on this box on a quiet minute, so they read like raw ones.
	calibRefNs = 75.0
)

type calibrator struct {
	sorted [numWorkers][]int64
	state  [numWorkers]uint64
}

func newCalibrator(seed int64) *calibrator {
	c := &calibrator{}
	for g := range c.sorted {
		c.sorted[g] = make([]int64, calibKeys)
		for i := range c.sorted[g] {
			c.sorted[g][i] = int64(2 * i) // half of the searched keys are present
		}
		c.state[g] = uint64(seed)<<8 + uint64(g)
	}
	return c
}

// search runs one worker's share of a slice and returns its ns per search.
func (c *calibrator) search(g int) float64 {
	// The generator state is a local for the loop: the workers' states share
	// a cache line.
	keys, st := c.sorted[g], c.state[g]
	found := 0
	t0 := time.Now()
	for i := 0; i < calibSlice; i++ {
		k := uniformKey(&st, 2*calibKeys)
		lo, hi := 0, len(keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		found += lo
	}
	ns := float64(time.Since(t0)) / calibSlice
	c.state[g] = st + uint64(found)&1 // keeps the searches live
	return ns
}

// slice times one calibration slice on `workers` goroutines at once (as many
// as the code being calibrated uses) and returns their mean ns per search.
func (c *calibrator) slice(workers int) float64 {
	var ns [numWorkers]float64
	together(workers, func(g int) { ns[g] = c.search(g) })
	var sum float64
	for _, v := range ns[:workers] {
		sum += v
	}
	return sum / float64(workers)
}
