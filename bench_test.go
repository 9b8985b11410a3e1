package repro

// Repository-level microbenchmarks, scaled down so that
// `go test -bench=. -benchmem` finishes in minutes on a laptop. The paper's
// Figure 8 grid is produced by cmd/chromatic-bench (README.md holds one run),
// and whether a change is faster is judged by the repository benchmark
// (go run ./benchmark).
//
//	BenchmarkPrimitives     LLX/SCX microbenchmarks (Section 3 overhead).
//	BenchmarkDescent        the search descent under random keys.
//	BenchmarkRangeScan100, BenchmarkAscend  the Section 5.5 live scans.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/workload"
)

// BenchmarkPrimitives measures the building blocks: the chromatic tree's
// three dictionary operations individually, which bound the cost of the
// LLX/SCX machinery on real updates.
func BenchmarkPrimitives(b *testing.B) {
	const keyRange = 1 << 16
	b.Run("Get", func(b *testing.B) {
		tree := chromatic.New()
		workload.PrefillExact(tree, keyRange, keyRange/2, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Get(int64(i) % keyRange)
		}
	})
	b.Run("InsertDelete", func(b *testing.B) {
		tree := chromatic.New()
		workload.PrefillExact(tree, keyRange, keyRange/2, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := int64(i) % keyRange
			if i%2 == 0 {
				tree.Insert(key, key)
			} else {
				tree.Delete(key)
			}
		}
	})
	b.Run("Successor", func(b *testing.B) {
		tree := chromatic.New()
		workload.PrefillExact(tree, keyRange, keyRange/2, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Successor(int64(i) % keyRange)
		}
	})
}

// BenchmarkDescent times the chromatic tree's Get, one goroutine, over a
// table of keys drawn before the timer starts, uniform and zipf, on the
// paper's three key ranges with the tree holding half of each. Unlike
// BenchmarkPrimitives/Get, whose in-order keys keep the descent's branches
// predicted and its lines cached, random keys mispredict about half of the
// descent's child choices, so a change to how the descent requests its
// lines shows here.
func BenchmarkDescent(b *testing.B) {
	const tableLen = 1 << 20
	for _, dist := range []workload.Dist{workload.DistUniform, workload.DistZipf} {
		for _, keyRange := range []int64{100, 10_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/%d", dist, keyRange), func(b *testing.B) {
				tree := chromatic.New()
				workload.PrefillExact(tree, keyRange, int(keyRange/2), 1)
				gen := workload.NewGeneratorDist(workload.Mix0i0d, keyRange, dist, 2)
				keys := make([]int64, tableLen)
				for i := range keys {
					_, keys[i] = gen.Next()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tree.Get(keys[i&(tableLen-1)])
				}
			})
		}
	}
}

// benchmarkScan times scan on each template tree (they share lbst's
// versioned live scan) holding half of a 10^4 key range (the repository
// benchmark's scan-10k shape), single-threaded, and reports the cost per
// visited key beside ns/op.
func benchmarkScan(b *testing.B, scan func(d dict.IntMap, i int, fn func(k, v int64) bool) int) {
	const keyRange = 10_000
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			b.Fatalf("unknown structure %q", name)
		}
		b.Run(name, func(b *testing.B) {
			d := factory.New()
			workload.PrefillExact(d, keyRange, keyRange/2, 1)
			var sum int64
			visit := func(k, v int64) bool { sum += v; return true }
			keys := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys += scan(d, i, visit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(keys, 1)), "ns/key")
		})
	}
}

// BenchmarkRangeScan100 is a live RangeScan over a 100-key window (about 50
// present keys) at a pseudo-random position.
func BenchmarkRangeScan100(b *testing.B) {
	benchmarkScan(b, func(d dict.IntMap, i int, fn func(k, v int64) bool) int {
		lo := allocKey(i) % (10_000 - 100)
		return d.(dict.IntRanger).RangeScan(lo, lo+99, fn)
	})
}

// BenchmarkAscend is a live Ascend over the whole tree (about 5000 keys).
func BenchmarkAscend(b *testing.B) {
	benchmarkScan(b, func(d dict.IntMap, _ int, fn func(k, v int64) bool) int {
		return d.(interface {
			Ascend(fn func(k, v int64) bool) int
		}).Ascend(fn)
	})
}
