// Package workload generates the synthetic workloads used in the paper's
// evaluation (Section 6) and the extensions this repository adds on top of
// them: operation mixes written "xi-yd" (x% Inserts, y% Deletes, the rest
// Gets) optionally extended with a range-scan share ("xi-yd-zs"), keys drawn
// either uniformly at random or from a zipfian (hot-key) distribution, and
// the prefilling procedure that brings a dictionary to its expected
// steady-state size before measurement.
//
// The zipfian distribution exists to expose the cost of value overwrites,
// but skew alone does not produce them: with equal insert and delete shares
// every key is present half the time whatever the distribution, so a zipf
// 50i-50d cell overwrites on a quarter of its operations, exactly as under
// uniform keys (benchmark/README.md has the measured shares). It takes a mix
// that inserts far more often than it deletes - zipf 45i-5d makes 40% of its
// operations overwrites, a fifth of them on the hottest key - for a
// structure that turns Insert-on-present into an in-place atomic publish
// (see internal/vcell and the trees' overwrite protocol) to separate sharply
// from one that pays a full removal-and-replace update for every overwrite.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dict"
)

// Mix is an operation mix: InsertPct percent of operations are Inserts,
// DeletePct percent are Deletes, ScanPct percent are range scans and the
// remainder are Gets.
type Mix struct {
	InsertPct int
	DeletePct int
	// ScanPct is the percentage of range-scan operations, each visiting the
	// keys in a window of DefaultScanSpan keys starting at the drawn key. The
	// paper's own mixes carry no scans; the scan share is this repository's
	// extension for the repository benchmark's scan-10k workload.
	ScanPct int
}

// The three operation mixes of Figure 8, plus the scan-heavy extension.
var (
	// Mix50i50d is the update-only workload (50% Insert, 50% Delete).
	Mix50i50d = Mix{InsertPct: 50, DeletePct: 50}
	// Mix20i10d is the mixed workload (20% Insert, 10% Delete, 70% Get).
	Mix20i10d = Mix{InsertPct: 20, DeletePct: 10}
	// Mix0i0d is the read-only workload (100% Get).
	Mix0i0d = Mix{InsertPct: 0, DeletePct: 0}
	// Mix5i5d50s is the scan-heavy workload (5% Insert, 5% Delete, 50%
	// RangeScan, 40% Get): enough updates to keep scans racing with
	// structural changes, with scans dominating the instruction mix.
	Mix5i5d50s = Mix{InsertPct: 5, DeletePct: 5, ScanPct: 50}
)

// String formats the mix the way the paper names it, e.g. "50i-50d"; a
// scan share is appended as e.g. "5i-5d-50s".
func (m Mix) String() string {
	if m.ScanPct > 0 {
		return fmt.Sprintf("%di-%dd-%ds", m.InsertPct, m.DeletePct, m.ScanPct)
	}
	return fmt.Sprintf("%di-%dd", m.InsertPct, m.DeletePct)
}

// ExpectedSize returns the expected steady-state dictionary size for this mix
// over the given key range, following the reasoning in Section 6 of the
// paper: under 50i-50d each key is present with probability 1/2; under
// 20i-10d with probability 2/3 (insertions are twice as likely as
// deletions); for a mix with no updates the paper prefills to half the key
// range. The per-key presence probability depends only on the insert/delete
// ratio, so it is the same whether keys are drawn uniformly or zipfian -
// skew changes how fast each key mixes, not where it settles.
func (m Mix) ExpectedSize(keyRange int64) int {
	switch {
	case m.InsertPct == 0 && m.DeletePct == 0:
		return int(keyRange / 2)
	case m.DeletePct == 0:
		return int(keyRange)
	default:
		num := int64(m.InsertPct)
		den := int64(m.InsertPct + m.DeletePct)
		return int(keyRange * num / den)
	}
}

// Dist selects the key distribution of a Generator.
type Dist int

const (
	// DistUniform draws keys uniformly from the key range (the paper's
	// evaluation).
	DistUniform Dist = iota
	// DistZipf draws keys from a zipfian distribution over the key range:
	// key k is drawn with probability proportional to (1+k)^-ZipfS, so key 0
	// is the hottest. Skewed access concentrates updates on present keys,
	// which is the workload that rewards the SCX-free in-place overwrite.
	DistZipf
)

// ZipfS is the zipfian exponent (the s parameter of rand.NewZipf, which
// requires s > 1). 1.2 concentrates roughly a third of the draws on the
// hottest dozen keys of a 10^4 key range without making the tail
// negligible.
const ZipfS = 1.2

// zipfV is the v parameter of rand.NewZipf (probability proportional to
// ((v+k)/v)^-s); 1 gives the classical zipf shape.
const zipfV = 1.0

// String returns the name the repository benchmark prints.
func (d Dist) String() string {
	if d == DistZipf {
		return "zipf"
	}
	return "uniform"
}

// DefaultScanSpan is the width of the key window a scan operation visits.
const DefaultScanSpan = 100

// Op identifies one dictionary operation kind.
type Op int

// Operation kinds produced by a Generator.
const (
	OpGet Op = iota
	OpInsert
	OpDelete
	// OpScan is a range scan over [key, key+span-1], where span is the scan
	// span passed to Apply.
	OpScan
)

// Generator produces a deterministic stream of operations for one worker
// goroutine. It is not safe for concurrent use; create one per goroutine.
type Generator struct {
	mix      Mix
	keyRange int64
	rng      *rand.Rand
	zipf     *rand.Zipf // nil for DistUniform
}

// NewGenerator returns a generator for the given mix and key range with
// uniformly distributed keys, seeded deterministically from seed.
func NewGenerator(mix Mix, keyRange int64, seed int64) *Generator {
	return NewGeneratorDist(mix, keyRange, DistUniform, seed)
}

// NewGeneratorDist returns a generator drawing keys from the given
// distribution, seeded deterministically from seed.
func NewGeneratorDist(mix Mix, keyRange int64, dist Dist, seed int64) *Generator {
	g := &Generator{
		mix:      mix,
		keyRange: keyRange,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if dist == DistZipf {
		g.zipf = rand.NewZipf(g.rng, ZipfS, zipfV, uint64(keyRange-1))
	}
	return g
}

// Next returns the next operation and its key. The value for inserts is the
// key itself (the benchmarks never inspect values). For zipfian generators
// the key's rank is its identity: key 0 is the hottest.
func (g *Generator) Next() (Op, int64) {
	var key int64
	if g.zipf != nil {
		key = int64(g.zipf.Uint64())
	} else {
		key = g.rng.Int63n(g.keyRange)
	}
	p := g.rng.Intn(100)
	switch {
	case p < g.mix.InsertPct:
		return OpInsert, key
	case p < g.mix.InsertPct+g.mix.DeletePct:
		return OpDelete, key
	case p < g.mix.InsertPct+g.mix.DeletePct+g.mix.ScanPct:
		return OpScan, key
	default:
		return OpGet, key
	}
}

// Apply performs one generated operation against d. scanSpan is the width of
// the key window an OpScan covers (DefaultScanSpan); it is ignored for the
// other operation kinds.
func Apply(d dict.IntMap, op Op, key int64, scanSpan int64) {
	switch op {
	case OpInsert:
		d.Insert(key, key)
	case OpDelete:
		d.Delete(key)
	case OpScan:
		scan(d, key, key+scanSpan-1)
	default:
		d.Get(key)
	}
}

// scan visits every key of d in [lo, hi]: natively through dict.Ranger when
// the structure provides a range scan, by repeated Successor queries when it
// is merely ordered, and degraded to a point Get otherwise.
func scan(d dict.IntMap, lo, hi int64) {
	if r, ok := d.(dict.IntRanger); ok {
		r.RangeScan(lo, hi, visitAll)
		return
	}
	om, ok := d.(dict.IntOrderedMap)
	if !ok {
		d.Get(lo)
		return
	}
	d.Get(lo)
	for k := lo; ; {
		nk, _, ok := om.Successor(k)
		if !ok || nk > hi {
			return
		}
		k = nk
	}
}

// visitAll is the no-op scan body, a package-level value so driving a native
// RangeScan allocates no closure per operation.
func visitAll(int64, int64) bool { return true }

// Prefill brings d to within tolerance (a fraction, e.g. 0.05) of the mix's
// expected steady-state size by running the update portion of the mix, as
// the paper's methodology prescribes. It returns the final size. Prefilling
// is single-threaded and deterministic for a given seed, and always uses
// uniform keys: the steady-state per-key presence probability is the same
// under zipfian draws (see ExpectedSize), and a uniform prefill reaches it
// across the whole key range instead of only at the hot end.
func Prefill(d dict.IntMap, mix Mix, keyRange int64, tolerance float64, seed int64) int {
	target := mix.ExpectedSize(keyRange)
	if target == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	insPct, delPct := mix.InsertPct, mix.DeletePct
	if insPct == 0 && delPct == 0 {
		// No-update mix: prefill with pure insertions of distinct keys.
		insPct, delPct = 100, 0
	}
	size := sizeOf(d)
	// Run update operations until the size settles inside the tolerance
	// band. The loop bounds the work so a pathological dictionary cannot
	// hang the harness.
	maxOps := 400 * keyRange
	if maxOps < 1_000_000 {
		maxOps = 1_000_000
	}
	for ops := int64(0); ops < maxOps; ops++ {
		if withinTolerance(size, target, tolerance) && ops%64 == 0 {
			break
		}
		key := rng.Int63n(keyRange)
		p := rng.Intn(insPct + delPct)
		if p < insPct {
			if _, existed := d.Insert(key, key); !existed {
				size++
			}
		} else {
			if _, existed := d.Delete(key); existed {
				size--
			}
		}
	}
	return size
}

// PrefillExact inserts exactly n distinct keys spread uniformly over the key
// range. It is used by the read-only workload and by tests that need a known
// size.
func PrefillExact(d dict.IntMap, keyRange int64, n int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	inserted := 0
	for inserted < n {
		key := rng.Int63n(keyRange)
		if _, existed := d.Insert(key, key); !existed {
			inserted++
		}
	}
	return inserted
}

func withinTolerance(size, target int, tolerance float64) bool {
	diff := size - target
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= tolerance*float64(target)
}

func sizeOf(d dict.IntMap) int {
	if s, ok := d.(dict.Sized); ok {
		return s.Size()
	}
	return 0
}
