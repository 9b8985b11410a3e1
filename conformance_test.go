package repro

// Shared OrderedMap conformance, fuzz and stress suite (internal/dict/
// dicttest) applied to EVERY dictionary in the repository - the trees built
// on the LLX/SCX tree update template and the evaluation's baseline
// competitors alike - through one table of targets. With int64 keys and
// values a registry structure's row is built by the benchmark registry's own
// factory, so the tests exercise exactly what the harness benchmarks. Each
// row carries its own invariant checker: the engine's structural check for
// EBST, the full height/balance bookkeeping for RAVL (after draining the
// relaxed violations), the weight invariants for the chromatic trees,
// BST-order and parent-pointer checks for the lock-based AVL tree,
// level-ordering checks for the two skip lists and the red-black properties
// for the sequential and STM red-black trees.
//
// The same table runs with string keys and values (targets[string,
// string]), so no part of the stack may assume integer keys.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/dict/dicttest"
	"repro/internal/ebst"
	"repro/internal/epoch"
	"repro/internal/linearize"
	"repro/internal/lockavl"
	"repro/internal/ravl"
	"repro/internal/sched"
	"repro/internal/seqrbt"
	"repro/internal/skiplist"
	"repro/internal/stmrbt"
	"repro/internal/stmskip"
)

// targets returns one dicttest row per dictionary: the nine registry
// structures and the purely sequential red-black tree (the Figure 9
// reference point), which is not in the registry because it is not safe for
// concurrent use. A row's Check is the structure's quiescent invariant
// checker and its CheckOp what holds between any two operations of a
// sequential run. With int64 keys and values a registry row's New is the
// registry's factory; TestRegistryCoversAllStructures pins the registry's
// names to the rows'.
func targets[K cmp.Ordered, V comparable]() []dicttest.TargetOf[K, V] {
	row := func(name string, newOrdered func() dict.Map[K, V], check func(dict.Map[K, V]) error) dicttest.TargetOf[K, V] {
		tgt := dicttest.TargetOf[K, V]{Name: name, New: newOrdered, Check: check, CheckOp: check}
		if f, ok := bench.Lookup(name); ok {
			if registered, int64s := any(f.New).(func() dict.Map[K, V]); int64s {
				tgt.New = registered
			}
		}
		return tgt
	}
	// A sequential run leaves nothing for RebalanceAll to do: every
	// operation's own cleanup restores the exact AVL shape.
	ravlRow := row("RAVL", func() dict.Map[K, V] { return ravl.NewOrdered[K, V]() },
		func(d dict.Map[K, V]) error { return d.(*ravl.Tree[K, V]).CheckAVL() })
	ravlRow.Check = func(d dict.Map[K, V]) error {
		tr := d.(*ravl.Tree[K, V])
		if err := tr.CheckStructure(); err != nil {
			return err
		}
		if _, err := tr.RebalanceAll(ravl.DrainCap(tr.Size())); err != nil {
			return err
		}
		return tr.CheckAVL()
	}
	return []dicttest.TargetOf[K, V]{
		row("EBST", func() dict.Map[K, V] { return ebst.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*ebst.Tree[K, V]).CheckStructure() }),
		ravlRow,
		// The plain chromatic tree rebalances eagerly: between operations it
		// must satisfy the full red-black conditions.
		row("Chromatic", func() dict.Map[K, V] { return chromatic.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*chromatic.Tree[K, V]).CheckRedBlack() }),
		// Chromatic6 may retain up to six violations per search path, so only
		// the structural and weight invariants must hold.
		row("Chromatic6", func() dict.Map[K, V] { return chromatic.NewOrdered[K, V](chromatic.WithAllowedViolations(6)) },
			func(d dict.Map[K, V]) error { return d.(*chromatic.Tree[K, V]).CheckInvariants() }),
		row("SkipList", func() dict.Map[K, V] { return skiplist.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*skiplist.List[K, V]).CheckInvariants() }),
		row("LockAVL", func() dict.Map[K, V] { return lockavl.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*lockavl.Tree[K, V]).CheckInvariants() }),
		row("RBSTM", func() dict.Map[K, V] { return stmrbt.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*stmrbt.Tree[K, V]).CheckInvariants() }),
		row("SkipListSTM", func() dict.Map[K, V] { return stmskip.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*stmskip.List[K, V]).CheckInvariants() }),
		row("RBGlobal", func() dict.Map[K, V] { return seqrbt.NewGlobalOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*seqrbt.Global[K, V]).CheckInvariants() }),
		row("SeqRBT", func() dict.Map[K, V] { return seqrbt.NewOrdered[K, V]() },
			func(d dict.Map[K, V]) error { return d.(*seqrbt.Tree[K, V]).CheckInvariants() }),
	}
}

// named keeps the rows whose names are listed.
func named[K cmp.Ordered, V comparable](tgts []dicttest.TargetOf[K, V], names ...string) []dicttest.TargetOf[K, V] {
	return slices.DeleteFunc(tgts, func(tgt dicttest.TargetOf[K, V]) bool { return !slices.Contains(names, tgt.Name) })
}

// concurrentTargets is every concurrency-safe row: the registry's.
func concurrentTargets[K cmp.Ordered, V comparable]() []dicttest.TargetOf[K, V] {
	return named(targets[K, V](), bench.Names()...)
}

// templateTrees is the int64 rows of the four trees built on the LLX/SCX
// template.
func templateTrees() []dicttest.TargetOf[int64, int64] {
	return named(targets[int64, int64](), "EBST", "RAVL", "Chromatic", "Chromatic6")
}

// ident is the int64 suites' key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// strKey is the string suites' key function. Keys come in pairs that share a
// prefix ("k07/long-suffix", "k07"), which stresses the key comparisons more
// than fixed-width keys would.
func strKey(u uint64) string {
	k := fmt.Sprintf("k%02d", u/2)
	if u%2 == 0 {
		return k + "/long-suffix"
	}
	return k
}

// strVal is the string suites' value function.
func strVal(u uint64) string { return fmt.Sprintf("v%d", u) }

// TestOrderedMapConformance runs the shared sequential suite - every
// operation, including Successor and Predecessor, mirrored against a model
// map - over every structure in the registry plus the sequential red-black
// tree. TestStringKeyedConformance runs it with string keys.
func TestOrderedMapConformance(t *testing.T) { testConformance(t, "", ident, ident) }

func TestStringKeyedConformance(t *testing.T) { testConformance(t, "/string", strKey, strVal) }

// testConformance runs the sequential suite over every row, as subtests
// named after the rows with suffix appended.
func testConformance[K cmp.Ordered, V comparable](t *testing.T, suffix string, key func(uint64) K, val func(uint64) V) {
	for _, tgt := range targets[K, V]() {
		t.Run(tgt.Name+suffix, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				dicttest.SequentialConformance(t, tgt, 6000, 200, key, val, seed)
			}
			// A tiny key range maximizes structural churn per key.
			dicttest.SequentialConformance(t, tgt, 4000, 8, key, val, 99)
		})
	}
}

// TestSharedKeyStress runs the shared-key recorded stress over every
// concurrency-safe structure in the registry, with int64 and with string
// keys: sixteen goroutines of 2 500 operations start together on sixteen
// shared keys, and the recorded history must be linearizable. The rows run
// one at a time, so each has both CPUs of a two-CPU host to itself: with
// LockAVL's Delete trusting an unvalidated miss, this shape failed 10 of 10
// seeds run this way, and 0 of 10 when the rows ran in parallel. It runs
// under -race in CI (the race job's test pattern matches "Stress").
func TestSharedKeyStress(t *testing.T) {
	for _, tgt := range concurrentTargets[int64, int64]() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.SharedKeyStress(t, tgt, 16, 2500, 16, ident, ident)
		})
	}
	for _, tgt := range concurrentTargets[string, string]() {
		t.Run(tgt.Name+"/string", func(t *testing.T) {
			dicttest.SharedKeyStress(t, tgt, 16, 2500, 16, strKey, strVal)
		})
	}
}

// TestHotKeyOverwriteStress hammers one key with concurrent overwrites while
// the same key (and its neighbours) are inserted and deleted, over every
// concurrency-safe structure in the registry. This is the targeted stress
// for the SCX-free in-place overwrite: values observed for the hot key must
// always be ones a writer actually published, and a successful delete at
// quiescence must never be undone by a racing overwrite (no lost
// finalization / resurrection). It runs under -race in CI (the race job's
// test pattern matches "Stress").
func TestHotKeyOverwriteStress(t *testing.T) {
	for _, tgt := range concurrentTargets[int64, int64]() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.HotKeyStress(t, tgt, 4, 6000, ident, ident)
		})
	}
}

// TestReclamationChurnStress is the epoch-reclamation torture test: several
// writers insert and delete the SAME small key window flat out - so every
// leaf and internal node backing the window is retired, passes through the
// grace period and is recycled continuously - while readers walk the window
// with Get, Successor chains and RangeScan. Readers assert that every key
// and value they observe is one the workload could legitimately contain; a
// recycled-too-early node surfaces as a foreign key, an unpublished value, a
// non-monotonic walk, or (under -tags reclaimcheck, which CI also runs) a
// deterministic generation-check panic in the read path. It runs under -race
// in CI (the race job's test pattern matches "Stress").
func TestReclamationChurnStress(t *testing.T) {
	for _, tgt := range concurrentTargets[int64, int64]() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ChurnStress(t, tgt, 4, 8000, ident, ident)
		})
	}
}

// TestHotKeyOverwriteStressBoxedValues repeats the hot-key stress with
// string values on the template trees and the two rewritten baselines, so
// the boxed (pointer) representation of the value cells - the fallback for
// non-word-sized value types - goes through the same overwrite races as the
// unboxed one.
func TestHotKeyOverwriteStressBoxedValues(t *testing.T) {
	for _, tgt := range named(targets[int64, string](), "Chromatic", "EBST", "SkipList", "LockAVL") {
		t.Run(tgt.Name+"/boxed", func(t *testing.T) {
			dicttest.HotKeyStress(t, tgt, 4, 4000, ident, strVal)
		})
	}
}

// churnOps returns one deterministic operation stream of the fuzz corpus: an
// optional ascending fill of [0, keyRange) followed by n inserts and deletes,
// insertPct percent of them inserts, of keys drawn from that range by a fixed
// LCG.
func churnOps(seed uint64, n, keyRange, insertPct int, prefill bool) []byte {
	var data []byte
	if prefill {
		for k := 0; k < keyRange; k++ {
			data = append(data, 0, byte(k), 1)
		}
	}
	next := func() uint64 {
		seed = seed*2862933555777941757 + 3037000493
		return seed >> 33
	}
	for i := 0; i < n; i++ {
		op := byte(1)
		if int(next()%100) < insertPct {
			op = 0
		}
		data = append(data, op, byte(next()%uint64(keyRange)), byte(next()))
	}
	return data
}

// fuzzSeedCorpus is the seed corpus of FuzzOrderedMapAgainstModel. The six
// churn streams were picked by a search over churnOps' parameters so that,
// together, they take the chromatic trees through every one of their
// rebalancing steps and the relaxed AVL tree through every step a sequential
// run can reach (TestFuzzSeedCorpusReachesEveryStep holds them to that). The
// overweight steps that need two overweight nodes side by side (W1, W7 and
// their mirrors) only fire on Chromatic6, which lets violations accumulate.
func fuzzSeedCorpus() [][]byte {
	corpus := [][]byte{
		{},
		{0, 1, 2},
		{0, 5, 1, 0, 5, 2, 1, 5, 0},
		{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 1, 2, 0, 3, 1, 0, 4, 9, 0},
	}
	// An ascending fill, a deletion of every other key, then ordered queries.
	var churn []byte
	for i := byte(0); i < 60; i++ {
		churn = append(churn, 0, i, i)
	}
	for i := byte(0); i < 60; i += 2 {
		churn = append(churn, 1, i, 0)
	}
	for i := byte(60); i > 0; i-- {
		churn = append(churn, 3, i, 0, 4, i, 0)
	}
	corpus = append(corpus, churn)
	for _, c := range []struct {
		seed                   uint64
		n, keyRange, insertPct int
		prefill                bool
	}{
		{274, 26, 58, 24, true},
		{24, 45, 217, 43, false},
		{774, 160, 19, 57, true},
		{351, 390, 66, 29, true},
		{294, 214, 38, 26, true},
		{21, 373, 58, 52, true},
	} {
		corpus = append(corpus, churnOps(c.seed, c.n, c.keyRange, c.insertPct, c.prefill))
	}
	return corpus
}

// FuzzOrderedMapAgainstModel feeds an arbitrary byte stream, decoded as
// (opcode, key, value) triples, to every structure - template trees and
// baselines, with int64 and with string keys - and compares each result with
// the model map. Every row is checked after every operation (its CheckOp:
// whole content against the model, then CheckRedBlack, CheckInvariants,
// CheckAVL, CheckStructure or the baseline's CheckInvariants), and every
// structure's quiescent invariant checker runs at the end of the input. Run with
// `go test -fuzz=FuzzOrderedMapAgainstModel .` for continuous fuzzing; the
// seed corpus runs as part of `go test`.
func FuzzOrderedMapAgainstModel(f *testing.F) {
	for _, data := range fuzzSeedCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*5000 {
			t.Skip("input larger than the op budget")
		}
		for _, tgt := range targets[int64, int64]() {
			dicttest.FuzzOps(t, tgt, ident, ident, data)
		}
		for _, tgt := range targets[string, string]() {
			dicttest.FuzzOps(t, tgt, strKey, strVal, data)
		}
	})
}

// TestFuzzSeedCorpusReachesEveryStep runs the seed corpus through the same
// per-operation-checked interpreter as the fuzz target and reads the trees'
// step counters afterwards: every chromatic rebalancing step and every
// relaxed AVL step must have fired at least once, on both of its sides, so
// each of them has been followed by an invariant check. The two child height
// fixes of the relaxed AVL tree need a stale height below an unbalanced node,
// which no sequential run of complete operations leaves behind: one update
// creates one violation and its own cleanup walks it up to the root. They are
// reached by the two scripts of staleChildHeightScripts instead, in which a
// deleter dies between its SCX and its cleanup (internal/ravl reaches them a
// third way, by holding cleanups back: TestCleanupFixesStaleChildHeightFirst).
func TestFuzzSeedCorpusReachesEveryStep(t *testing.T) {
	var chromatics []*chromatic.Tree[int64, int64]
	var ravls []*ravl.Tree[int64, int64]
	trees := templateTrees()
	for i := range trees {
		newTree := trees[i].New
		trees[i].New = func() dict.Map[int64, int64] {
			d := newTree()
			switch tr := d.(type) {
			case *chromatic.Tree[int64, int64]:
				chromatics = append(chromatics, tr)
			case *ravl.Tree[int64, int64]:
				ravls = append(ravls, tr)
			}
			return d
		}
	}
	for _, data := range fuzzSeedCorpus() {
		for _, tgt := range trees {
			dicttest.FuzzOps(t, tgt, ident, ident, data)
		}
	}
	for _, tgt := range trees {
		if tgt.Name == "RAVL" {
			staleChildHeightScripts(t, tgt)
		}
	}
	fired := map[string]int64{}
	for _, tr := range chromatics {
		s := tr.Stats()
		for name, c := range map[string]*epoch.Counter{
			"BLK": &s.BLK, "RB1": &s.RB1, "RB1s": &s.MirrorRB1, "RB2": &s.RB2, "RB2s": &s.MirrorRB2,
			"PUSH": &s.PUSH, "PUSHs": &s.MirrorPUSH,
			"W1": &s.W1, "W1s": &s.MirrorW1, "W2": &s.W2, "W2s": &s.MirrorW2,
			"W3": &s.W3, "W3s": &s.MirrorW3, "W4": &s.W4, "W4s": &s.MirrorW4,
			"W5": &s.W5, "W5s": &s.MirrorW5, "W6": &s.W6, "W6s": &s.MirrorW6,
			"W7": &s.W7, "W7s": &s.MirrorW7,
		} {
			fired[name] += c.Load()
		}
	}
	for _, tr := range ravls {
		s := tr.Stats()
		for name, c := range map[string]*epoch.Counter{
			"RAVL height fix":        &s.HeightFixes,
			"RAVL child height fix":  &s.ChildHeightFixes,
			"RAVL child height fix*": &s.MirrorChildHeightFixes,
			"RAVL single rotation":   &s.SingleRotations,
			"RAVL single rotation*":  &s.MirrorSingleRotations,
			"RAVL double rotation":   &s.DoubleRotations,
			"RAVL double rotation*":  &s.MirrorDoubleRotations,
		} {
			fired[name] += c.Load()
		}
	}
	if len(fired) != 21+7 {
		t.Fatalf("counted %d distinct steps, want 21 chromatic and 7 relaxed AVL", len(fired))
	}
	for name, n := range fired {
		if n == 0 {
			t.Errorf("the seed corpus never reaches step %s", name)
		}
	}
}

// staleChildHeightScripts takes a relaxed AVL tree through its two child
// height fixes. Each script fills keys 1..9 (ascending, or descending for the
// mirror image), deletes the outermost key of the taller side with a deleter
// that dies after its SCX and before its cleanup - an injected panic at the
// first retire, the crash the chaos suites model - and then deletes a key of
// the shorter side: that deletion's cleanup walks top-down, meets the root
// unbalanced with its taller child's stored height stale, and must correct
// the child before it may rotate. The oracle is the target's own: the content
// against the expected keys, then the drain to an exact AVL tree.
func staleChildHeightScripts(t *testing.T, tgt dicttest.TargetOf[int64, int64]) {
	for _, sc := range []struct {
		descending       bool
		crashed, trigger int64
	}{
		{false, 9, 6}, // the right child is the taller one
		{true, 1, 4},  // the left child is
	} {
		d := tgt.New()
		for i := int64(1); i <= 9; i++ {
			k := i
			if sc.descending {
				k = 10 - i
			}
			d.Insert(k, k)
		}
		deleteAndDieBeforeCleanup(t, d, sc.crashed)
		d.Delete(sc.trigger)
		for k := int64(1); k <= 9; k++ {
			if _, ok := d.Get(k); ok == (k == sc.crashed || k == sc.trigger) {
				t.Fatalf("%s: after Delete(%d) by a deleter that died and Delete(%d), Get(%d) reports present=%v", tgt.Name, sc.crashed, sc.trigger, k, ok)
			}
		}
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: after Delete(%d) by a deleter that died and Delete(%d): %v", tgt.Name, sc.crashed, sc.trigger, err)
		}
	}
}

// deleteAndDieBeforeCleanup deletes key from d on a goroutine that panics at
// the first instrumentation point past the deletion's SCX, the retiring of
// the removed nodes: the deletion has taken effect, and the violation it
// created is left for whoever passes next.
func deleteAndDieBeforeCleanup(t *testing.T, d dict.Map[int64, int64], key int64) {
	t.Helper()
	err := sched.EnableChaos(sched.ChaosConfig{Seed: 1, Points: map[sched.PointID]sched.ChaosPolicy{
		sched.PointEpochRetire: {Panic: 1_000_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.DisableChaos()
	w := sched.RegisterChaos(0)
	defer w.Close()
	defer func() {
		if _, injected := recover().(sched.ChaosPanic); !injected {
			t.Fatalf("Delete(%d) returned without meeting the injected panic", key)
		}
	}()
	d.Delete(key)
}

// TestRegistryCoversAllStructures pins the registry the harness and the
// figures rely on: the paper's own algorithms (chromatic trees), the
// engine-based trees (EBST, RAVL) and the competitors, each name once and in
// the order of Figure 8's series. Every factory must build an ordered map -
// since the generic unification, Successor/Predecessor are part of every
// structure's contract - and a fresh, independent one on every call. It also
// pins which structures are Snapshotters, with int64 and with string keys:
// exactly the LLX/SCX trees. The snapshot suite skips the others.
func TestRegistryCoversAllStructures(t *testing.T) {
	figure8 := []string{"Chromatic", "Chromatic6", "RAVL", "SkipList", "LockAVL", "EBST", "RBSTM", "SkipListSTM", "RBGlobal"}
	if got := bench.Names(); !slices.Equal(got, figure8) {
		t.Errorf("registry names = %v, want %v", got, figure8)
	}
	for _, f := range bench.Registry() {
		a, b := f.New(), f.New()
		if _, ok := a.(dict.OrderedMap[int64, int64]); !ok {
			t.Errorf("%s does not implement dict.OrderedMap", f.Name)
		}
		a.Insert(1, 1)
		if _, ok := b.Get(1); ok {
			t.Errorf("%s: two instances from one factory share state", f.Name)
		}
	}
	want := []string{"Chromatic", "Chromatic6", "EBST", "RAVL"}
	if got := snapshotters(targets[int64, int64]()); !slices.Equal(got, want) {
		t.Errorf("int64 structures implementing dict.Snapshotter = %v, want %v", got, want)
	}
	if got := snapshotters(targets[string, string]()); !slices.Equal(got, want) {
		t.Errorf("string-keyed structures implementing dict.Snapshotter = %v, want %v", got, want)
	}
}

// snapshotters returns the sorted names of the rows whose dictionaries are
// Snapshotters.
func snapshotters[K cmp.Ordered, V comparable](tgts []dicttest.TargetOf[K, V]) []string {
	var names []string
	for _, tgt := range tgts {
		if _, ok := tgt.New().(dict.Snapshotter[K, V]); ok {
			names = append(names, tgt.Name)
		}
	}
	slices.Sort(names)
	return names
}

// TestSnapshotConformance runs the shared snapshot suite - frozen views that
// never observe post-snapshot updates (including in-place overwrites),
// consistent-cut checks under concurrent churn, and the hold-churn
// reclamation stress - over every structure in the registry.
// TestStringKeyedSnapshotConformance runs it with string keys: the frozen
// walk must not assume integer keys.
func TestSnapshotConformance(t *testing.T) { testSnapshots(t, "", ident, ident) }

func TestStringKeyedSnapshotConformance(t *testing.T) { testSnapshots(t, "/string", strKey, strVal) }

func testSnapshots[K cmp.Ordered, V comparable](t *testing.T, suffix string, key func(uint64) K, val func(uint64) V) {
	for _, tgt := range concurrentTargets[K, V]() {
		t.Run(tgt.Name+suffix, func(t *testing.T) {
			dicttest.SnapshotSuite(t, tgt, key, val)
		})
	}
}

// TestScanConformance compares range scans with the sorted keys on every
// registry structure (and the sequential red-black tree): live, through the
// recorder's Scan (the native RangeScan, or its Successor walk where there
// is none, as on LockAVL), and, on the structures with snapshots, through a
// frozen view. The ranges are the whole key range, an inner one with both
// bounds absent, and an empty one (hi < lo, both present), which must visit
// nothing.
func TestScanConformance(t *testing.T) {
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, tgt := range targets[int64, int64]() {
		t.Run(tgt.Name, func(t *testing.T) {
			d := tgt.New()
			if _, native := d.(dict.IntRanger); tgt.Name == "LockAVL" && native {
				t.Fatal("LockAVL has a native RangeScan: the recorder's Successor walk is not under test")
			}
			for _, k := range keys {
				d.Insert(2*k, -k)
			}
			var view dict.IntSnapshotView
			if sn, ok := d.(dict.IntSnapshotter); ok {
				view = sn.Snapshot()
				defer view.Release()
			}
			for _, r := range []struct{ lo, hi, first, n int64 }{{2, 18, 2, 9}, {5, 13, 6, 4}, {14, 6, 0, 0}} {
				var want, live, frozen []int64
				for k := r.first; k < r.first+2*r.n; k += 2 {
					want = append(want, k)
				}
				rec := linearize.NewRecorder[int64, int64](d)
				n := rec.Proc().Scan(r.lo, r.hi)
				for _, op := range rec.History().Ops {
					live = append(live, op.Key)
				}
				if n != len(want) || !slices.Equal(live, want) {
					t.Errorf("live scan of [%d, %d] visited %d keys %v, want %v", r.lo, r.hi, n, live, want)
				}
				if view == nil {
					continue
				}
				n = view.RangeScan(r.lo, r.hi, func(k, _ int64) bool {
					frozen = append(frozen, k)
					return true
				})
				if n != len(want) || !slices.Equal(frozen, want) {
					t.Errorf("snapshot scan of [%d, %d] visited %d keys %v, want %v", r.lo, r.hi, n, frozen, want)
				}
			}
		})
	}
}

// TestChromaticLoadOrStore pins the semantics of the insert-if-absent
// primitive the generic stack added for shared per-key state (see
// examples/wordindex): exactly one of the racing stores wins and every
// later call observes the winner.
func TestChromaticLoadOrStore(t *testing.T) {
	tr := chromatic.NewOrdered[string, int64]()
	if v, loaded := tr.LoadOrStore("a", 1); loaded || v != 1 {
		t.Fatalf("first LoadOrStore = (%d,%v), want (1,false)", v, loaded)
	}
	if v, loaded := tr.LoadOrStore("a", 2); !loaded || v != 1 {
		t.Fatalf("second LoadOrStore = (%d,%v), want (1,true)", v, loaded)
	}
	done := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		go func(g int64) {
			v, _ := tr.LoadOrStore("contended", g)
			done <- v
		}(int64(g))
	}
	first := <-done
	for i := 0; i < 7; i++ {
		if v := <-done; v != first {
			t.Fatalf("racing LoadOrStore observed both %d and %d", first, v)
		}
	}
	if v, ok := tr.Get("contended"); !ok || v != first {
		t.Fatalf("Get after racing LoadOrStore = (%d,%v), want (%d,true)", v, ok, first)
	}
}
