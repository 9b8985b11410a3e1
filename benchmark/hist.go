package main

import (
	"math/bits"
	"sort"
)

// histSub is the number of linear sub-buckets per power of two. A bucket is
// 1/32 of its lower bound wide at most, so a quantile read from it is within
// 3 % of the exact sample even before interpolation. The harness's own
// latencyHist (internal/bench) has one bucket per octave-half and cannot
// resolve a 10 % bound.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a log-linear histogram of non-negative nanosecond values. Values
// below histSub get one bucket each; above that, every octave is split into
// histSub equal buckets. The zero value is empty and ready to use.
type hist struct {
	n      int64
	counts [histBuckets]int64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= histSubBits
	sub := int(v>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// bucketBounds returns the smallest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	w := int64(1) << (e - histSubBits)
	return float64((int64(histSub) + int64(sub)) * w), float64(w)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// sub removes the samples of o, an earlier state of the same histogram.
func (h *hist) sub(o *hist) {
	for i, c := range o.counts {
		h.counts[i] -= c
	}
	h.n -= o.n
}

// quantile returns the q-quantile (0 < q < 1), interpolated linearly inside
// the bucket that holds it, so the result moves with the counts and two runs
// do not read the same value merely because they share a bucket. An empty
// histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketBounds(histBuckets - 1)
	return lo + w
}

// tailPercentiles are the percentiles a report may print, lowest first, each
// with the number of samples of which one lies beyond it.
var tailPercentiles = []struct {
	p       float64
	oneInOf int64
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile returns the highest entry of tailPercentiles that still
// has at least ten of n samples beyond it, and false when not even the
// median has.
func highestPercentile(n int64) (float64, bool) {
	best, ok := 0.0, false
	for _, t := range tailPercentiles {
		if n >= 10*t.oneInOf {
			best, ok = t.p, true
		}
	}
	return best, ok
}

// minWindowShare is the share of a workload's operations a latency class
// needs for its percentiles to be read from the timed windows. Below it the
// class is too thin under load for a bounded metric and is read from the
// quiescent probe instead (see probe in run.go).
const minWindowShare = 0.10

func fromWindows(classOps, totalOps int64) bool {
	return totalOps > 0 && float64(classOps) >= minWindowShare*float64(totalOps)
}

// workerWindow is one worker's part of one window: the operations it
// completed and the time it itself spent on them.
type workerWindow struct {
	ops     int64
	elapsed int64 // ns
}

// windowThroughput is the window's operations per second: each worker's ops
// over its own elapsed time, summed. Dividing the total by one shared
// duration would credit a worker that overran the window with the other's
// time.
func windowThroughput(ws []workerWindow) float64 {
	var t float64
	for _, w := range ws {
		if w.elapsed > 0 {
			t += float64(w.ops) / (float64(w.elapsed) / 1e9)
		}
	}
	return t
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bestDecile is the value only one window in ten beats: the 90th percentile
// of a higher-is-better series, the 10th of a lower-is-better one,
// interpolated. This box shares its cores with other tenants, whose load
// slows a window down and never speeds it up (a fixed spin loop here takes
// 17 to 47 ms from one second to the next, with no steal time reported), so
// the fast end of the windows estimates the program and the median estimates
// the neighbours. Over ten runs the median of 250 ms windows spread 15 % on
// get-10k throughput where the best decile spread 9 % (README, "Windows").
func bestDecile(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := 0.1
	if better == higher {
		q = 0.9
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spreadFrac is the distance between the first and third quartile as a share
// of the median, the same quantity the pipeline computes over repeated runs.
// Fewer than four values have no quartiles and read 0.
func spreadFrac(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quartile(s, 3) - quartile(s, 1)) / m
}

// quartile is Python's statistics.quantiles(v, n=4)[k-1] (the default
// "exclusive" method) over sorted s, so the number printed here can be
// checked against the pipeline's.
func quartile(s []float64, k int) float64 {
	n := len(s)
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}
