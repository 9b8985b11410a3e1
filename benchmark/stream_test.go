package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/workload"
)

type drawn struct {
	op  workload.Op
	key int64
}

func draw(s stream, n int) []drawn {
	out := make([]drawn, n)
	for i := range out {
		out[i].op, out[i].key = s.next()
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		keyRange := min(sp.KeyRange, 100_000)
		for w := 0; w < numWorkers; w++ {
			a := newStream(7, w, sp.Mix, sp.Dist, keyRange)
			b := newStream(7, w, sp.Mix, sp.Dist, keyRange)
			if !slices.Equal(a.zipf, b.zipf) {
				t.Errorf("%s worker %d: zipf tables differ for one seed", sp.Name, w)
			}
			da := draw(a, 1<<16)
			if !slices.Equal(da, draw(b, 1<<16)) {
				t.Errorf("%s worker %d: streams differ for one seed", sp.Name, w)
			}
			other := newStream(8, w, sp.Mix, sp.Dist, keyRange)
			if slices.Equal(da, draw(other, 1<<16)) {
				t.Errorf("%s worker %d: seeds 7 and 8 give one stream", sp.Name, w)
			}
			if sp.Dist == workload.DistZipf && slices.Equal(a.zipf, other.zipf) {
				t.Errorf("%s worker %d: seeds 7 and 8 give one zipf table", sp.Name, w)
			}
			for _, d := range da {
				if d.key < 0 || d.key >= keyRange {
					t.Fatalf("%s: key %d outside [0,%d)", sp.Name, d.key, keyRange)
				}
			}
		}
		if slices.Equal(draw(newStream(7, 0, sp.Mix, sp.Dist, keyRange), 1<<10), draw(newStream(7, 1, sp.Mix, sp.Dist, keyRange), 1<<10)) {
			t.Errorf("%s: workers 0 and 1 draw one stream", sp.Name)
		}
	}
}

// TestRealisedClassShares pins the path mix each workload is there for, so a
// generator change that silently shifts it fails. The shares are what the
// README and BENCHMARK.json claim; the zipf 45i-5d numbers are measured, not
// guessed (internal/workload's claim that zipf 50i-50d is overwrite-heavy is
// wrong: under a quarter of its operations overwrite).
func TestRealisedClassShares(t *testing.T) {
	want := map[string]map[class][2]float64{ // class -> share, tolerance
		"get-10k":            {clsGet: {1, 0}},
		"update-10k":         {clsUpd: {0.50, 0.02}, clsOvw: {0.25, 0.02}, clsMiss: {0.25, 0.02}},
		"mixed-1m":           {clsGet: {0.70, 0.02}, clsUpd: {0.13, 0.02}, clsOvw: {0.13, 0.02}},
		"overwrite-zipf-10k": {clsGet: {0.50, 0.02}, clsOvw: {0.405, 0.03}, clsUpd: {0.09, 0.008}},
		"scan-10k":           {clsGet: {0.40, 0.02}, clsScan: {0.25, 0.02}, clsSnapscan: {0.25, 0.02}, clsUpd: {0.05, 0.01}},
	}
	for _, sp := range specs {
		keyRange := min(sp.KeyRange, 100_000)
		f, _ := bench.Lookup(sp.Structure)
		m := f.New().(checkedStore)
		workload.Prefill(m, sp.Mix, keyRange, prefillTolerance, 3)
		w := newWorker(0, m, newStream(3, 0, sp.Mix, sp.Dist, keyRange), sampleEvery-1)
		const n = 400_000
		w.run(time.Hour, n)
		if w.failed != 0 {
			t.Errorf("%s: %d failed operations", sp.Name, w.failed)
		}
		for c, ws := range want[sp.Name] {
			if got := float64(w.ops[c]) / n; math.Abs(got-ws[0]) > ws[1] {
				t.Errorf("%s: %s share %.3f, want %.2f +- %.2f", sp.Name, classNames[c], got, ws[0], ws[1])
			}
		}
		// The 10 % rule must not sit on a class's share, or the metric's
		// source would flip between runs.
		for c := class(0); c < numClasses; c++ {
			if share := float64(w.ops[c]) / n; share > 0.092 && share < 0.11 {
				t.Errorf("%s: %s share %.3f is too close to the 10 %% rule", sp.Name, classNames[c], share)
			}
		}
	}
}

// TestCountMetricsRepeatExactly: the single-goroutine counts of the layer run
// depend on the seed alone.
func TestCountMetricsRepeatExactly(t *testing.T) {
	counts := func(seed int64) map[string]float64 {
		got := map[string]float64{}
		problems := runLayers(seed, 50, func(name string, v float64, _ string) {
			switch name {
			case "chromatic.rebalance_per_update", "chromatic.height_1e4", "lbst.ravl_rebalance_per_update":
				got[name] = v
			}
		})
		if len(problems) > 0 {
			t.Errorf("layer run: %v", problems)
		}
		return got
	}
	a, b := counts(5), counts(5)
	if len(a) != 3 {
		t.Fatalf("layer run reported %d of the 3 count metrics", len(a))
	}
	for name, v := range a {
		if b[name] != v {
			t.Errorf("%s: %v then %v with one seed", name, v, b[name])
		}
		if v <= 0 {
			t.Errorf("%s = %v, want a positive count", name, v)
		}
	}
}
