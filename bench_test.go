package repro

// Repository-level microbenchmarks, scaled down so that
// `go test -bench=. -benchmem` finishes in minutes on a laptop. The paper's
// Figure 8 grid is produced by cmd/chromatic-bench (README.md holds one run),
// and whether a change is faster is judged by the repository benchmark
// (go run ./benchmark).
//
//	BenchmarkPrimitives     LLX/SCX microbenchmarks (Section 3 overhead).
//	BenchmarkRangeScan100, BenchmarkAscend  the Section 5.5 live scans.

import (
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
