package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantileWithinThreePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]int64, 200_000)
	for i := range samples {
		// Log-uniform over 40 ns .. 40 ms, the range latencies live in. (Under
		// 32 ns a bucket is 1 ns wide and the error is absolute, under 1 ns.)
		samples[i] = int64(40 * math.Pow(1e6, rng.Float64()))
		h.add(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(samples[int(q*float64(len(samples)))])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q=%g: got %.1f, exact %.1f, relative error %.4f > 0.03", q, got, exact, rel)
		}
	}
	var small hist
	for v := int64(0); v < histSub; v++ {
		small.add(v)
	}
	if got := small.quantile(0.5); math.Abs(got-16) > 1 {
		t.Errorf("median of 0..31 = %g, want about 16", got)
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram reads %g, want 0", got)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, 1 << 62} {
		b := bucketOf(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d: not monotone or out of range", v, b)
		}
		prev = b
		lo, w := bucketBounds(b)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d not inside its bucket [%g, %g)", v, lo, lo+w)
		}
	}
}

func TestHistMergeIsAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, c, all hist
	for i, h := range []*hist{&a, &b, &c} {
		for n := 0; n < 1000*(i+1); n++ {
			v := rng.Int63n(1 << uint(10+5*i))
			h.add(v)
			all.add(v)
		}
	}
	left := a // (a+b)+c
	left.merge(&b)
	left.merge(&c)
	bc := b // a+(b+c)
	bc.merge(&c)
	right := a
	right.merge(&bc)
	if left != right || left != all {
		t.Fatal("merge is not associative, or differs from adding every sample to one histogram")
	}
}

func TestHistSubUndoesMerge(t *testing.T) {
	var before, after hist
	for v := int64(0); v < 500; v++ {
		before.add(v * 7)
		after.add(v * 7)
	}
	var window hist
	for v := int64(1); v < 300; v++ {
		window.add(v * 1000)
		after.add(v * 1000)
	}
	after.sub(&before)
	if after != window {
		t.Fatal("a histogram minus its earlier state is not what was added in between")
	}
}

func TestBestDecile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100, 110} // sorted: 10..110, 11 values
	if got := bestDecile(v, higher); got != 100 {
		t.Errorf("best decile of a higher-is-better series = %g, want 100 (one value in ten beats it)", got)
	}
	if got := bestDecile(v, lower); got != 20 {
		t.Errorf("best decile of a lower-is-better series = %g, want 20", got)
	}
	if got := bestDecile([]float64{1, 2}, higher); got != 1.9 {
		t.Errorf("best decile of {1,2} = %g, want 1.9 by interpolation", got)
	}
	if got := bestDecile([]float64{7}, lower); got != 7 {
		t.Errorf("best decile of one value = %g, want it", got)
	}
	if got := bestDecile(nil, lower); got != 0 {
		t.Errorf("best decile of nothing = %g, want 0", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {10_000, 0.999, true}, {100_000, 0.9999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestClassBelowTenPercentIsNotReadFromWindows(t *testing.T) {
	for _, c := range []struct {
		class, total int64
		want         bool
	}{{0, 0, false}, {0, 100, false}, {9, 100, false}, {10, 100, true}, {99_999, 1_000_000, false}, {133, 1000, true}} {
		if got := fromWindows(c.class, c.total); got != c.want {
			t.Errorf("fromWindows(%d, %d) = %v, want %v", c.class, c.total, got, c.want)
		}
	}
}

func TestWindowThroughputUsesEachWorkersOwnElapsed(t *testing.T) {
	got := windowThroughput([]workerWindow{{ops: 100, elapsed: 1e9}, {ops: 300, elapsed: 2e9}})
	if got != 250 {
		t.Errorf("windowThroughput = %g, want 100/1s + 300/2s = 250", got)
	}
	if got := windowThroughput([]workerWindow{{ops: 5, elapsed: 0}}); got != 0 {
		t.Errorf("a worker with no elapsed time contributes %g, want 0", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	want := (8.25 - 2.75) / 5.5
	if got := spreadFrac(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadFrac = %g, want %g", got, want)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := spreadFrac(v[:3]); got != 0 {
		t.Errorf("spread of three values = %g, want 0", got)
	}
}
