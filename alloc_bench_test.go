package repro

// Allocation microbenchmarks for the LLX/SCX hot path. The paper's Java
// implementation keeps SCX records compact and avoids per-attempt garbage;
// these benchmarks pin down what the Go port allocates per dictionary
// operation on each template-based tree so regressions are caught in CI
// (see TestChromaticAllocBudget and the bench-smoke workflow job).
//
// Keys are visited in a pseudo-random but deterministic order: multiplying
// the iteration index by an odd constant modulo a power-of-two key range is a
// bijection, so every Insert in a block hits a fresh key, every Delete hits a
// present key, and runs are exactly reproducible. Trees are filled in the
// same order: a sorted fill would give the unbalanced EBST a linear spine,
// and every timed operation would then measure a walk down it.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dict"
	"repro/internal/epoch"
)

// allocKeyRange is a power of two so that (i * allocKeyMult) & allocKeyMask
// permutes the key space block by block.
const (
	allocKeyRange = 1 << 16
	allocKeyMask  = allocKeyRange - 1
	allocKeyMult  = 2654435761 // Knuth's multiplicative-hash constant (odd)
)

func allocKey(i int) int64 { return int64((uint64(i) * allocKeyMult) & allocKeyMask) }

// allocBenchStructures are the template-based trees whose allocation profile
// this PR's hot-path work targets.
var allocBenchStructures = []string{"Chromatic", "RAVL", "EBST"}

// allocOverwriteStructures additionally cover the two rewritten baselines:
// with the unboxed value cells, Insert on a present key must allocate
// nothing anywhere in the registry's int64 instantiations.
var allocOverwriteStructures = []string{"Chromatic", "RAVL", "EBST", "SkipList", "LockAVL"}

// BenchmarkAlloc reports ns/op and allocs/op for Get, Insert, Overwrite
// (Insert on a present key) and Delete on each template-based tree, plus the
// Overwrite case for the skip list and the lock-based AVL tree. Run with
// -benchmem (ReportAllocs is set anyway) and compare allocs/op across
// commits.
func BenchmarkAlloc(b *testing.B) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			b.Fatalf("unknown structure %q", name)
		}
		b.Run(name+"/Get", func(b *testing.B) { benchmarkAllocGet(b, factory) })
		b.Run(name+"/Insert", func(b *testing.B) { benchmarkAllocInsert(b, factory) })
		b.Run(name+"/Delete", func(b *testing.B) { benchmarkAllocDelete(b, factory) })
		b.Run(name+"/Churn", func(b *testing.B) { benchmarkAllocChurn(b, factory) })
	}
	for _, name := range allocOverwriteStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			b.Fatalf("unknown structure %q", name)
		}
		b.Run(name+"/Overwrite", func(b *testing.B) { benchmarkAllocOverwrite(b, factory) })
	}
}

// benchmarkAllocOverwrite measures Insert on a present key: the structure is
// filled once and every timed Insert hits an existing key in the permuted
// order, so the whole run goes through the in-place overwrite path.
func benchmarkAllocOverwrite(b *testing.B, factory dict.IntFactory) {
	d := factory.New()
	for i := 0; i < allocKeyRange; i++ {
		k := allocKey(i)
		d.Insert(k, k)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := allocKey(i)
		d.Insert(k, int64(i))
	}
}

// allocChurnWindow is the slice of the key space the churn cells cycle keys
// through. Small enough that the whole window turns over many times per
// benchmark run, so the node pool reaches steady state.
const allocChurnWindow = 1 << 10

// benchmarkAllocChurn measures the steady-state insert/delete cycle the
// epoch pools target: the tree is filled once, then each timed pair of
// operations deletes a present key and re-inserts it. At steady state every
// node an update needs was retired by an earlier update and recycled through
// the pool, and SCX argument blocks are rewritten in place, so allocs/op should sit
// near zero (the growth-phase Insert cells above necessarily allocate: a
// growing tree keeps its nodes).
func benchmarkAllocChurn(b *testing.B, factory dict.IntFactory) {
	d := factory.New()
	for i := 0; i < allocKeyRange; i++ {
		k := allocKey(i)
		d.Insert(k, k)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := allocKey(i>>1) & (allocChurnWindow - 1)
		if i&1 == 0 {
			d.Delete(k)
		} else {
			d.Insert(k, int64(i))
		}
	}
}

func benchmarkAllocGet(b *testing.B, factory dict.IntFactory) {
	d := factory.New()
	for i := 0; i < allocKeyRange; i += 2 {
		k := allocKey(i) // i even, so k even: exactly the even keys
		d.Insert(k, k)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		d.Get(allocKey(i))
	}
}

func benchmarkAllocInsert(b *testing.B, factory dict.IntFactory) {
	d := factory.New()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i > 0 && i&allocKeyMask == 0 {
			// The key space is exhausted: start over on a fresh tree with the
			// timer (and the allocation accounting) stopped.
			b.StopTimer()
			d = factory.New()
			b.StartTimer()
		}
		k := allocKey(i)
		d.Insert(k, k)
	}
}

// chromaticAllocBudget is the committed allocs/op ceiling for Chromatic
// Insert and Delete, enforced by TestChromaticAllocBudget (run in CI's
// bench-smoke job). With epoch reclamation and the node and cell pools the
// measured growth-phase profile is 3.0 (Insert) and 0.0 (Delete): a growing
// tree keeps what it builds, so Insert still pays for the key leaf, its value
// cell and the replacement internal, while Delete's replacement node comes
// out of the pool and no SCX allocates a descriptor. (The budget was 8 before
// pooling, when every update also burned its retired nodes and its
// descriptors.) The budget of 4 leaves one alloc of headroom for rebalancing
// drift while catching any reintroduction of per-attempt garbage.
const chromaticAllocBudget = 4.0

// chromaticChurnAllocBudget is the committed allocs/op ceiling for the
// steady-state insert/delete cycle (TestChromaticChurnAllocBudget): once the
// pools are primed, a delete retires more nodes than the matching re-insert
// consumes, so updates should run allocation-free on average. The budget of
// 1 tolerates retire-list growth and epoch-lag refill stalls without letting
// per-operation garbage back in.
const chromaticChurnAllocBudget = 1.0

// TestChromaticAllocBudget fails if the Chromatic tree's Insert or Delete
// paths exceed the committed allocation budget. It uses the same
// deterministic permuted key order as BenchmarkAlloc, so the rebalancing
// work (and therefore the allocation profile) is reproducible.
func TestChromaticAllocBudget(t *testing.T) {
	factory, ok := bench.Lookup("Chromatic")
	if !ok {
		t.Fatal("Chromatic not registered")
	}
	d := factory.New()
	const runs = 20000

	i := 0
	insAllocs := testing.AllocsPerRun(runs, func() {
		k := allocKey(i)
		d.Insert(k, k)
		i++
	})
	if insAllocs > chromaticAllocBudget {
		t.Errorf("Chromatic Insert allocates %.2f allocs/op, budget is %.1f", insAllocs, chromaticAllocBudget)
	}

	// Delete the keys just inserted, in the same permuted order.
	i = 0
	delAllocs := testing.AllocsPerRun(runs, func() {
		d.Delete(allocKey(i))
		i++
	})
	if delAllocs > chromaticAllocBudget {
		t.Errorf("Chromatic Delete allocates %.2f allocs/op, budget is %.1f", delAllocs, chromaticAllocBudget)
	}
	t.Logf("Chromatic allocs/op: Insert %.2f, Delete %.2f (budget %.1f)", insAllocs, delAllocs, chromaticAllocBudget)
}

// TestChromaticChurnAllocBudget pins the headline number of the epoch
// reclamation work: a steady-state delete/re-insert cycle on the Chromatic
// tree must average at most one allocation per operation, because retired
// nodes flow back through the pool and SCX argument blocks are per-slot and
// rewritten. Nothing the cycle retires may refuse its free either: a refusal
// is a retiree that something still counted a reference to, and since
// descriptors stopped being retired no such object exists on this path.
func TestChromaticChurnAllocBudget(t *testing.T) {
	factory, ok := bench.Lookup("Chromatic")
	if !ok {
		t.Fatal("Chromatic not registered")
	}
	d := factory.New()
	for i := int64(0); i < allocKeyRange; i++ {
		d.Insert(i, i)
	}
	// Prime the pools: cycle the churn window a few times untimed so the
	// first timed deletes do not pay the initial retire-list growth.
	for i := 0; i < 4*allocChurnWindow; i++ {
		k := allocKey(i>>1) & (allocChurnWindow - 1)
		if i&1 == 0 {
			d.Delete(k)
		} else {
			d.Insert(k, int64(i))
		}
	}
	refusals := epoch.Stats().Refusals
	i := 0
	churnAllocs := testing.AllocsPerRun(20000, func() {
		k := allocKey(i>>1) & (allocChurnWindow - 1)
		if i&1 == 0 {
			d.Delete(k)
		} else {
			d.Insert(k, int64(i))
		}
		i++
	})
	if churnAllocs > chromaticChurnAllocBudget {
		t.Errorf("Chromatic churn allocates %.2f allocs/op, budget is %.1f", churnAllocs, chromaticChurnAllocBudget)
	}
	if d := epoch.Stats().Refusals - refusals; d != 0 {
		t.Errorf("Chromatic churn: %d free callbacks refused, want 0", d)
	}
	t.Logf("Chromatic churn: %.2f allocs/op (budget %.1f)", churnAllocs, chromaticChurnAllocBudget)
}

// TestReclaimNoLeak checks that retired memory does not accumulate: after a
// burst of updates reaches quiescence, draining the epoch retire lists frees
// everything except the bounded residue the two-epoch grace period is
// allowed to hold back (at most the last two epochs' worth of retirees,
// which drain on the next call).
func TestReclaimNoLeak(t *testing.T) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		d := factory.New()
		const n = 1 << 12
		for i := 0; i < n; i++ {
			k := allocKey(i) & (n - 1)
			d.Insert(k, k)
		}
		for i := int64(0); i < n; i++ {
			d.Delete(i)
		}
		dr, ok := d.(interface{ DrainReclaim() int64 })
		if !ok {
			t.Fatalf("%s does not expose DrainReclaim", name)
		}
		// Two passes: the first frees everything already past the grace
		// period, the second reaps what the first pass's frees retired.
		dr.DrainReclaim()
		dr.DrainReclaim()
		if pending := epoch.Pending(); pending > 64 {
			t.Errorf("%s: %d retired objects still pending after drain at quiescence", name, pending)
		} else {
			t.Logf("%s: %d retired objects pending after drain", name, pending)
		}
	}
}

// overwriteAllocBudget is the committed allocs/op ceiling for Insert on a
// present key with int64 values: zero, for every structure the in-place
// overwrite work covers. The trees publish into the leaf's unboxed value
// cell without an SCX (previously >= 2 allocs: a replacement leaf plus a
// descriptor), and the skip list and lock-based AVL tree publish into their
// nodes' unboxed cells (previously 1 alloc: the atomic.Pointer box).
const overwriteAllocBudget = 0.0

// TestOverwriteAllocBudget fails if Insert on a present key allocates on any
// covered structure. Single-threaded and deterministic: overwrites trigger
// no structural change, so there is no rebalancing noise to average out.
func TestOverwriteAllocBudget(t *testing.T) {
	for _, name := range allocOverwriteStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		d := factory.New()
		const keys = 1 << 10
		for i := int64(0); i < keys; i++ {
			d.Insert(i, i)
		}
		i := 0
		allocs := testing.AllocsPerRun(20000, func() {
			d.Insert(allocKey(i)&(keys-1), int64(i))
			i++
		})
		if allocs > overwriteAllocBudget {
			t.Errorf("%s overwrite allocates %.2f allocs/op, budget is %.1f", name, allocs, overwriteAllocBudget)
		} else {
			t.Logf("%s overwrite: %.2f allocs/op", name, allocs)
		}
	}
}

// TestRangeScanAllocBudget fails if a live RangeScan over 100 present keys
// (two validated chunks) allocates on any template tree: the traversal's
// evidence, pending-subtree stack and leaf buffers all live on its frame.
func TestRangeScanAllocBudget(t *testing.T) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		d := factory.New()
		const keys = 1 << 12
		for i := 0; i < keys; i++ {
			k := allocKey(i) & (keys - 1)
			d.Insert(k, k)
		}
		rg := d.(dict.IntRanger)
		var sum int64
		visit := func(k, v int64) bool { sum += v; return true }
		i := 0
		allocs := testing.AllocsPerRun(5000, func() {
			lo := allocKey(i) & (keys - 1) % (keys - 100)
			if n := rg.RangeScan(lo, lo+99, visit); n != 100 {
				t.Fatalf("%s RangeScan(%d, %d) visited %d keys, want 100", name, lo, lo+99, n)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("%s RangeScan over 100 keys allocates %.2f allocs/op, budget is 0", name, allocs)
		} else {
			t.Logf("%s RangeScan over 100 keys: %.2f allocs/op", name, allocs)
		}
	}
}

// TestSuccessorAllocBudget fails if Successor, Predecessor, Min or Max
// allocates on any template tree: the search path's evidence lives on the
// query's frame, two words per node.
func TestSuccessorAllocBudget(t *testing.T) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		d := factory.New().(interface {
			dict.IntOrderedMap
			Min() (int64, int64, bool)
			Max() (int64, int64, bool)
		})
		const keys = 1 << 12
		for i := 0; i < keys; i++ {
			k := allocKey(i) & (keys - 1)
			d.Insert(k, k)
		}
		i := 0
		allocs := testing.AllocsPerRun(20000, func() {
			k := 1 + allocKey(i)&(keys-1)%(keys-2)
			if s, _, ok := d.Successor(k); !ok || s != k+1 {
				t.Fatalf("%s Successor(%d) = %d, %v", name, k, s, ok)
			}
			if p, _, ok := d.Predecessor(k); !ok || p != k-1 {
				t.Fatalf("%s Predecessor(%d) = %d, %v", name, k, p, ok)
			}
			if lo, _, ok := d.Min(); !ok || lo != 0 {
				t.Fatalf("%s Min() = %d, %v", name, lo, ok)
			}
			if hi, _, ok := d.Max(); !ok || hi != keys-1 {
				t.Fatalf("%s Max() = %d, %v", name, hi, ok)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("%s Successor, Predecessor, Min and Max allocate %.2f allocs/op, budget is 0", name, allocs)
		} else {
			t.Logf("%s Successor, Predecessor, Min and Max: %.2f allocs/op", name, allocs)
		}
	}
}

// snapshotAllocBudget is the committed allocs/op ceiling for Snapshot() on
// the template trees: the capture is O(1) and allocation-lean regardless of
// the dictionary's size - one allocation for the view handle; the epoch pin
// comes from a fixed slot array and the version read is a single atomic
// load. The budget of 2 leaves room for a pin-slot overflow fallback.
const snapshotAllocBudget = 2.0

// TestSnapshotAllocBudget fails if capturing and releasing a snapshot
// allocates more than the committed budget on any snapshot-capable
// structure, at two very different tree sizes - the point of the O(1)
// capture is precisely that size must not matter.
func TestSnapshotAllocBudget(t *testing.T) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, size := range []int{1 << 6, 1 << 15} {
			d := factory.New()
			for i := 0; i < size; i++ {
				k := allocKey(i) & int64(size-1)
				d.Insert(k, k)
			}
			sn, ok := d.(dict.IntSnapshotter)
			if !ok {
				t.Fatalf("%s does not implement dict.Snapshotter", name)
			}
			allocs := testing.AllocsPerRun(2000, func() {
				s := sn.Snapshot()
				s.Release()
			})
			if allocs > snapshotAllocBudget {
				t.Errorf("%s Snapshot at %d keys allocates %.2f allocs/op, budget is %.1f", name, size, allocs, snapshotAllocBudget)
			} else {
				t.Logf("%s Snapshot at %d keys: %.2f allocs/op", name, size, allocs)
			}
		}
	}
}

// BenchmarkSnapshotCapture reports ns/op and allocs/op for a capture/release
// pair on a filled tree: the O(1) claim in wall-clock form.
func BenchmarkSnapshotCapture(b *testing.B) {
	for _, name := range allocBenchStructures {
		factory, ok := bench.Lookup(name)
		if !ok {
			b.Fatalf("unknown structure %q", name)
		}
		b.Run(name, func(b *testing.B) {
			d := factory.New()
			for i := 0; i < allocKeyRange; i++ {
				k := allocKey(i)
				d.Insert(k, k)
			}
			sn := d.(dict.IntSnapshotter)
			b.ReportAllocs()
			for b.Loop() {
				s := sn.Snapshot()
				s.Release()
			}
		})
	}
}

// benchmarkAllocDelete measures steady-state deletion: the tree starts
// full and oscillates between allocKeyRange and allocKeyRange/2 keys (the
// deleted half is re-inserted with the timer stopped), so every timed
// Delete removes a present key from a large tree rather than draining the
// structure into the degenerate near-empty regime.
func benchmarkAllocDelete(b *testing.B, factory dict.IntFactory) {
	const half = allocKeyRange / 2
	d := factory.New()
	for i := 0; i < allocKeyRange; i++ {
		k := allocKey(i)
		d.Insert(k, k)
	}
	b.ReportAllocs()
	j := 0
	for b.Loop() {
		if j == half {
			b.StopTimer()
			for k := 0; k < half; k++ {
				key := allocKey(k)
				d.Insert(key, key)
			}
			j = 0
			b.StartTimer()
		}
		d.Delete(allocKey(j))
		j++
	}
}
