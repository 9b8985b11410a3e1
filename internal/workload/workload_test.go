package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/lockavl"
	"repro/internal/seqrbt"
)

func TestMixString(t *testing.T) {
	cases := map[string]Mix{
		"50i-50d":   Mix50i50d,
		"20i-10d":   Mix20i10d,
		"0i-0d":     Mix0i0d,
		"5i-5d-50s": Mix5i5d50s,
	}
	for want, mix := range cases {
		if got := mix.String(); got != want {
			t.Errorf("Mix.String() = %q, want %q", got, want)
		}
	}
}

// TestDistString pins the distribution names the repository benchmark prints
// in its header line.
func TestDistString(t *testing.T) {
	if DistUniform.String() != "uniform" || DistZipf.String() != "zipf" {
		t.Error("Dist.String names changed")
	}
}

func TestExpectedSizeMatchesPaper(t *testing.T) {
	// Section 6: 50i-50d settles at half the key range, 20i-10d at two
	// thirds, and the read-only workload is prefilled to half.
	if got := Mix50i50d.ExpectedSize(1000); got != 500 {
		t.Errorf("50i-50d expected size = %d, want 500", got)
	}
	if got := Mix20i10d.ExpectedSize(900); got != 600 {
		t.Errorf("20i-10d expected size = %d, want 600", got)
	}
	if got := Mix0i0d.ExpectedSize(1000); got != 500 {
		t.Errorf("0i-0d expected size = %d, want 500", got)
	}
	if got := (Mix{InsertPct: 10, DeletePct: 0}).ExpectedSize(1000); got != 1000 {
		t.Errorf("insert-only expected size = %d, want 1000", got)
	}
}

func TestGeneratorRespectsMix(t *testing.T) {
	gen := NewGenerator(Mix20i10d, 1000, 7)
	counts := map[Op]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, key := gen.Next()
		if key < 0 || key >= 1000 {
			t.Fatalf("key %d out of range", key)
		}
		counts[op]++
	}
	insFrac := float64(counts[OpInsert]) / n
	delFrac := float64(counts[OpDelete]) / n
	getFrac := float64(counts[OpGet]) / n
	if insFrac < 0.18 || insFrac > 0.22 {
		t.Errorf("insert fraction = %.3f, want ~0.20", insFrac)
	}
	if delFrac < 0.08 || delFrac > 0.12 {
		t.Errorf("delete fraction = %.3f, want ~0.10", delFrac)
	}
	if getFrac < 0.68 || getFrac > 0.72 {
		t.Errorf("get fraction = %.3f, want ~0.70", getFrac)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Mix50i50d, 100, 5)
	b := NewGenerator(Mix50i50d, 100, 5)
	for i := 0; i < 1000; i++ {
		opA, keyA := a.Next()
		opB, keyB := b.Next()
		if opA != opB || keyA != keyB {
			t.Fatalf("generators with the same seed diverged at step %d", i)
		}
	}
}

func TestPrefillReachesSteadyStateSize(t *testing.T) {
	for _, mix := range []Mix{Mix50i50d, Mix20i10d, Mix0i0d} {
		d := seqrbt.New()
		const keyRange = 2000
		size := Prefill(d, mix, keyRange, 0.05, 3)
		want := mix.ExpectedSize(keyRange)
		lo := int(float64(want) * 0.94)
		hi := int(float64(want) * 1.06)
		if size < lo || size > hi {
			t.Errorf("mix %s: prefilled size %d outside [%d,%d]", mix, size, lo, hi)
		}
		if d.Size() != size {
			t.Errorf("mix %s: reported size %d != actual size %d", mix, size, d.Size())
		}
	}
}

func TestPrefillExact(t *testing.T) {
	d := seqrbt.New()
	if got := PrefillExact(d, 10000, 1234, 9); got != 1234 {
		t.Fatalf("PrefillExact returned %d, want 1234", got)
	}
	if d.Size() != 1234 {
		t.Fatalf("Size = %d, want 1234", d.Size())
	}
}

func TestApply(t *testing.T) {
	d := seqrbt.New()
	Apply(d, OpInsert, 5, DefaultScanSpan)
	if _, ok := d.Get(5); !ok {
		t.Fatal("Apply(OpInsert) did not insert")
	}
	Apply(d, OpGet, 5, DefaultScanSpan)
	Apply(d, OpDelete, 5, DefaultScanSpan)
	if _, ok := d.Get(5); ok {
		t.Fatal("Apply(OpDelete) did not delete")
	}
}

// TestApplyScan drives OpScan through both scan paths: the native
// dict.Ranger range scan (chromatic tree) and the Successor-walk fallback
// (lock-based AVL tree, which exposes no RangeScan).
func TestApplyScan(t *testing.T) {
	targets := []dict.IntMap{chromatic.New(), lockavl.NewOrdered[int64, int64]()}
	if _, ok := targets[0].(dict.IntRanger); !ok {
		t.Fatal("chromatic tree no longer implements dict.Ranger; the native scan path is untested")
	}
	if _, ok := targets[1].(dict.IntRanger); ok {
		t.Fatal("lockavl implements dict.Ranger; pick another fallback target")
	}
	for _, d := range targets {
		for i := int64(0); i < 64; i++ {
			d.Insert(i, i)
		}
		// The scan has no externally visible result; it must simply complete
		// (and is exercised for linearizability by the conformance suites).
		Apply(d, OpScan, 10, 20)
		Apply(d, OpScan, 60, 20) // window past the last key
		Apply(d, OpScan, 100, 5) // empty window
	}
}

// TestZipfGeneratorDeterministic pins the reproducibility contract: two
// zipfian generators with the same seed produce identical operation streams.
func TestZipfGeneratorDeterministic(t *testing.T) {
	a := NewGeneratorDist(Mix5i5d50s, 10_000, DistZipf, 12345)
	b := NewGeneratorDist(Mix5i5d50s, 10_000, DistZipf, 12345)
	c := NewGeneratorDist(Mix5i5d50s, 10_000, DistZipf, 54321)
	diverged := false
	for i := 0; i < 5000; i++ {
		opA, keyA := a.Next()
		opB, keyB := b.Next()
		if opA != opB || keyA != keyB {
			t.Fatalf("zipf generators with the same seed diverged at step %d", i)
		}
		opC, keyC := c.Next()
		if opA != opC || keyA != keyC {
			diverged = true
		}
	}
	if !diverged {
		t.Error("zipf generators with different seeds produced identical streams")
	}
}

// TestZipfDistributionMatchesTheory draws a large sample and checks the
// empirical frequency of the hottest keys against the zipf law the generator
// promises: P(k) proportional to (1+k)^-ZipfS over [0, keyRange).
func TestZipfDistributionMatchesTheory(t *testing.T) {
	const keyRange = 1000
	const samples = 400_000
	gen := NewGeneratorDist(Mix0i0d, keyRange, DistZipf, 7)
	counts := make([]int, keyRange)
	for i := 0; i < samples; i++ {
		_, key := gen.Next()
		if key < 0 || key >= keyRange {
			t.Fatalf("zipf key %d out of range [0,%d)", key, keyRange)
		}
		counts[key]++
	}
	// Normalization constant of P(k) = (1+k)^-s / H.
	h := 0.0
	for k := 0; k < keyRange; k++ {
		h += math.Pow(1+float64(k), -ZipfS)
	}
	for _, k := range []int{0, 1, 2, 10} {
		want := math.Pow(1+float64(k), -ZipfS) / h
		got := float64(counts[k]) / samples
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("key %d frequency = %.4f, theory %.4f (±15%%)", k, got, want)
		}
	}
	// The distribution must actually be skewed: the hottest key must appear
	// far more often than a uniform draw would produce.
	if counts[0] < 10*samples/keyRange {
		t.Errorf("hottest key drawn %d times; expected a strong hot spot", counts[0])
	}
	// Monotone head: frequencies must not increase with rank.
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("head frequencies not monotone: %d, %d, %d", counts[0], counts[1], counts[2])
	}
}

// TestScanMixGeneratesScans checks the scan share of the operation stream.
func TestScanMixGeneratesScans(t *testing.T) {
	gen := NewGenerator(Mix5i5d50s, 1000, 11)
	counts := map[Op]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, _ := gen.Next()
		counts[op]++
	}
	scanFrac := float64(counts[OpScan]) / n
	if scanFrac < 0.48 || scanFrac > 0.52 {
		t.Errorf("scan fraction = %.3f, want ~0.50", scanFrac)
	}
	getFrac := float64(counts[OpGet]) / n
	if getFrac < 0.38 || getFrac > 0.42 {
		t.Errorf("get fraction = %.3f, want ~0.40", getFrac)
	}
}

// TestPropertyGeneratorKeysInRange checks with testing/quick that generated
// keys always fall inside the configured key range, for arbitrary ranges and
// seeds.
func TestPropertyGeneratorKeysInRange(t *testing.T) {
	prop := func(rangeSeed uint16, seed int64) bool {
		keyRange := int64(rangeSeed)%5000 + 1
		gen := NewGenerator(Mix20i10d, keyRange, seed)
		for i := 0; i < 200; i++ {
			_, key := gen.Next()
			if key < 0 || key >= keyRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

var _ dict.IntMap = (*seqrbt.Tree[int64, int64])(nil)
