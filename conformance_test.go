package repro

// Shared OrderedMap conformance, fuzz and stress suite (internal/dict/
// dicttest) applied to EVERY dictionary in the repository - the trees built
// on the LLX/SCX tree update template and the evaluation's baseline
// competitors alike - resolved through the benchmark registry so the tests
// exercise exactly what the harness benchmarks. Each target carries its own
// quiescent invariant checker: the engine's structural check for EBST, the
// full height/balance bookkeeping for RAVL (after draining the relaxed
// violations), the weight invariants for the chromatic trees, BST-order and
// parent-pointer checks for the lock-based AVL tree, level-ordering checks
// for the two skip lists and the red-black properties for the sequential
// and STM red-black trees.
//
// The same suite also runs against string-keyed instantiations of every
// structure (see stringTreeTargets), so no part of the stack may assume
// integer keys.

import (
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

// templateTreeTargets returns the dicttest targets for the template-based
// trees, with structure-specific invariant checkers.
func templateTreeTargets(tb testing.TB) []dicttest.Target {
	lookup := func(name string) func() dict.IntMap {
		f, ok := bench.Lookup(name)
		if !ok {
			tb.Fatalf("structure %q not in bench registry", name)
		}
		return f.New
	}
	return []dicttest.Target{
		{
			Name: "EBST",
			New:  lookup("EBST"),
			Check: func(d dict.IntMap) error {
				return d.(*ebst.Tree[int64, int64]).CheckStructure()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*ebst.Tree[int64, int64]).CheckStructure()
			},
		},
		{
			Name: "RAVL",
			New:  lookup("RAVL"),
			Check: func(d dict.IntMap) error {
				tr := d.(*ravl.Tree[int64, int64])
				if err := tr.CheckStructure(); err != nil {
					return err
				}
				if _, err := tr.RebalanceAll(ravl.DrainCap(tr.Size())); err != nil {
					return err
				}
				return tr.CheckAVL()
			},
			// A sequential run leaves nothing for RebalanceAll to do: every
			// operation's own cleanup restores the exact AVL shape.
			CheckOp: func(d dict.IntMap) error {
				return d.(*ravl.Tree[int64, int64]).CheckAVL()
			},
		},
		{
			Name: "Chromatic",
			New:  lookup("Chromatic"),
			Check: func(d dict.IntMap) error {
				// The plain chromatic tree rebalances eagerly: at quiescence
				// it must satisfy the full red-black conditions.
				return d.(*chromatic.Tree[int64, int64]).CheckRedBlack()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*chromatic.Tree[int64, int64]).CheckRedBlack()
			},
		},
		{
			Name: "Chromatic6",
			New:  lookup("Chromatic6"),
			Check: func(d dict.IntMap) error {
				// Chromatic6 may retain up to six violations per search path,
				// so only the structural and weight invariants must hold.
				return d.(*chromatic.Tree[int64, int64]).CheckInvariants()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*chromatic.Tree[int64, int64]).CheckInvariants()
			},
		},
	}
}

// baselineTargets returns the dicttest targets for the evaluation's baseline
// competitors, again resolved through the registry so the suite tests the
// exact factories the harness benchmarks.
func baselineTargets(tb testing.TB) []dicttest.Target {
	lookup := func(name string) func() dict.IntMap {
		f, ok := bench.Lookup(name)
		if !ok {
			tb.Fatalf("structure %q not in bench registry", name)
		}
		return f.New
	}
	return []dicttest.Target{
		{
			Name: "SkipList",
			New:  lookup("SkipList"),
			Check: func(d dict.IntMap) error {
				return d.(*skiplist.List[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "LockAVL",
			New:  lookup("LockAVL"),
			Check: func(d dict.IntMap) error {
				return d.(*lockavl.Tree[int64, int64]).CheckInvariants()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*lockavl.Tree[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "RBSTM",
			New:  lookup("RBSTM"),
			Check: func(d dict.IntMap) error {
				return d.(*stmrbt.Tree[int64, int64]).CheckInvariants()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*stmrbt.Tree[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "SkipListSTM",
			New:  lookup("SkipListSTM"),
			Check: func(d dict.IntMap) error {
				return d.(*stmskip.List[int64, int64]).CheckInvariants()
			},
		},
		{
			Name: "RBGlobal",
			New:  lookup("RBGlobal"),
			Check: func(d dict.IntMap) error {
				return d.(*seqrbt.Global[int64, int64]).CheckInvariants()
			},
			CheckOp: func(d dict.IntMap) error {
				return d.(*seqrbt.Global[int64, int64]).CheckInvariants()
			},
		},
	}
}

// seqRBTTarget is the purely sequential red-black tree (the Figure 9
// reference point). It is not in the registry because it is not safe for
// concurrent use; it runs the sequential and fuzz suites only.
func seqRBTTarget() dicttest.Target {
	return dicttest.Target{
		Name: "SeqRBT",
		New:  func() dict.IntMap { return seqrbt.New() },
		Check: func(d dict.IntMap) error {
			return d.(*seqrbt.Tree[int64, int64]).CheckInvariants()
		},
		CheckOp: func(d dict.IntMap) error {
			return d.(*seqrbt.Tree[int64, int64]).CheckInvariants()
		},
	}
}

// allConcurrentTargets is every concurrency-safe structure in the registry:
// the template trees and the baselines, under one suite.
func allConcurrentTargets(tb testing.TB) []dicttest.Target {
	return append(templateTreeTargets(tb), baselineTargets(tb)...)
}

// allSequentialTargets additionally includes the sequential red-black tree.
func allSequentialTargets(tb testing.TB) []dicttest.Target {
	return append(allConcurrentTargets(tb), seqRBTTarget())
}

// stringTreeTargets instantiates the generic template trees with string keys
// and values.
func stringTreeTargets() []dicttest.TargetOf[string, string] {
	return []dicttest.TargetOf[string, string]{
		{
			Name: "EBST/string",
			New:  func() dict.Map[string, string] { return ebst.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*ebst.Tree[string, string]).CheckStructure()
			},
		},
		{
			Name: "RAVL/string",
			New:  func() dict.Map[string, string] { return ravl.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				tr := d.(*ravl.Tree[string, string])
				if err := tr.CheckStructure(); err != nil {
					return err
				}
				if _, err := tr.RebalanceAll(ravl.DrainCap(tr.Size())); err != nil {
					return err
				}
				return tr.CheckAVL()
			},
		},
		{
			Name: "Chromatic/string",
			New:  func() dict.Map[string, string] { return chromatic.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*chromatic.Tree[string, string]).CheckRedBlack()
			},
		},
		{
			Name: "Chromatic6/string",
			New: func() dict.Map[string, string] {
				return chromatic.NewOrdered[string, string](chromatic.WithAllowedViolations(6))
			},
			Check: func(d dict.Map[string, string]) error {
				return d.(*chromatic.Tree[string, string]).CheckInvariants()
			},
		},
	}
}

// stringBaselineTargets instantiates the five baseline structures with
// string keys and values.
func stringBaselineTargets() []dicttest.TargetOf[string, string] {
	return []dicttest.TargetOf[string, string]{
		{
			Name: "SkipList/string",
			New:  func() dict.Map[string, string] { return skiplist.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*skiplist.List[string, string]).CheckInvariants()
			},
		},
		{
			Name: "LockAVL/string",
			New:  func() dict.Map[string, string] { return lockavl.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*lockavl.Tree[string, string]).CheckInvariants()
			},
		},
		{
			Name: "RBSTM/string",
			New:  func() dict.Map[string, string] { return stmrbt.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*stmrbt.Tree[string, string]).CheckInvariants()
			},
		},
		{
			Name: "SkipListSTM/string",
			New:  func() dict.Map[string, string] { return stmskip.NewOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*stmskip.List[string, string]).CheckInvariants()
			},
		},
		{
			Name: "RBGlobal/string",
			New:  func() dict.Map[string, string] { return seqrbt.NewGlobalOrdered[string, string]() },
			Check: func(d dict.Map[string, string]) error {
				return d.(*seqrbt.Global[string, string]).CheckInvariants()
			},
		},
	}
}

// stringSeqRBTTarget is the string-keyed sequential tree (sequential and
// fuzz suites only).
func stringSeqRBTTarget() dicttest.TargetOf[string, string] {
	return dicttest.TargetOf[string, string]{
		Name: "SeqRBT/string",
		New:  func() dict.Map[string, string] { return seqrbt.NewOrdered[string, string]() },
		Check: func(d dict.Map[string, string]) error {
			return d.(*seqrbt.Tree[string, string]).CheckInvariants()
		},
	}
}

func allStringConcurrentTargets() []dicttest.TargetOf[string, string] {
	return append(stringTreeTargets(), stringBaselineTargets()...)
}

func allStringSequentialTargets() []dicttest.TargetOf[string, string] {
	return append(allStringConcurrentTargets(), stringSeqRBTTarget())
}

// stringKey derives a compact string key from the suite's random stream.
// The space mixes short and long keys sharing prefixes, which stresses the
// key comparisons more than fixed-width keys would.
func stringKey(u uint64) string {
	base := fmt.Sprintf("k%02d", u%97)
	if u%3 == 0 {
		return base + "/long-suffix"
	}
	return base
}

func stringVal(u uint64) string { return fmt.Sprintf("v%d", u%1024) }

// TestOrderedMapConformance runs the shared sequential suite - every
// operation, including Successor and Predecessor, mirrored against a model
// map - over every structure in the registry plus the sequential red-black
// tree.
func TestOrderedMapConformance(t *testing.T) {
	for _, tgt := range allSequentialTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				dicttest.SequentialConformance(t, tgt, 6000, 200, seed)
			}
			// A tiny key range maximizes structural churn per key.
			dicttest.SequentialConformance(t, tgt, 4000, 8, 99)
		})
	}
}

// TestStringKeyedConformance runs the same sequential suite over the
// string-keyed instantiations of every structure.
func TestStringKeyedConformance(t *testing.T) {
	for _, tgt := range allStringSequentialTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				dicttest.SequentialConformanceKV(t, tgt, 6000, stringKey, stringVal, seed)
			}
			// A tiny key space maximizes structural churn per key.
			dicttest.SequentialConformanceKV(t, tgt, 4000,
				func(u uint64) string { return fmt.Sprintf("k%d", u%8) }, stringVal, 99)
		})
	}
}

// TestStringKeyedConcurrentStress runs the shared concurrent suite over the
// string-keyed instantiations of every concurrency-safe structure, with
// per-goroutine disjoint key prefixes.
func TestStringKeyedConcurrentStress(t *testing.T) {
	for _, tgt := range allStringConcurrentTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ConcurrentStressKV(t, tgt, 4, 4000,
				func(g int, u uint64) string { return fmt.Sprintf("g%d/%03d", g, u%150) },
				stringVal)
		})
	}
}

// TestOrderedMapConcurrentStress runs the shared concurrent suite with the
// per-structure invariant checks at quiescence over every concurrency-safe
// structure in the registry.
func TestOrderedMapConcurrentStress(t *testing.T) {
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ConcurrentStress(t, tgt, 4, 4000, 150)
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
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.HotKeyStress(t, tgt, 4, 6000)
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
	for _, tgt := range allConcurrentTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ChurnStress(t, tgt, 4, 8000)
		})
	}
}

// TestHotKeyOverwriteStressBoxedValues repeats the hot-key stress with
// string values on the template trees and the two rewritten baselines, so
// the boxed (pointer) representation of the value cells - the fallback for
// non-word-sized value types - goes through the same overwrite races as the
// unboxed one.
func TestHotKeyOverwriteStressBoxedValues(t *testing.T) {
	targets := []dicttest.TargetOf[int64, string]{
		{
			Name: "Chromatic/boxed",
			New:  func() dict.Map[int64, string] { return chromatic.NewOrdered[int64, string]() },
		},
		{
			Name: "EBST/boxed",
			New:  func() dict.Map[int64, string] { return ebst.NewOrdered[int64, string]() },
		},
		{
			Name: "SkipList/boxed",
			New:  func() dict.Map[int64, string] { return skiplist.NewOrdered[int64, string]() },
		},
		{
			Name: "LockAVL/boxed",
			New:  func() dict.Map[int64, string] { return lockavl.NewOrdered[int64, string]() },
		},
	}
	const hot = int64(1 << 20)
	neighbors := []int64{hot - 2, hot - 1, hot + 1, hot + 2}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.HotKeyStressKV(t, tgt, 4, 4000, hot, neighbors,
				func(w, i int) string { return fmt.Sprintf("w%d/%d", w, i) },
				"churn")
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
// baselines, both the int64 registry instantiations and the string-keyed
// generic ones - and compares each result with the model map. The four
// template trees and the baseline trees (LockAVL, RBSTM, RBGlobal, SeqRBT)
// are checked after every operation (their targets' CheckOp: whole content
// against the model, then CheckRedBlack, CheckInvariants, CheckAVL,
// CheckStructure or the baseline's CheckInvariants); every structure's
// invariant checker runs at the end of the input. Run with
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
		for _, tgt := range allSequentialTargets(t) {
			dicttest.FuzzOps(t, tgt, data)
		}
		for _, tgt := range allStringSequentialTargets() {
			dicttest.FuzzOpsKV(t, tgt, stringKey, stringVal, data)
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
	targets := templateTreeTargets(t)
	for i := range targets {
		newTree := targets[i].New
		targets[i].New = func() dict.IntMap {
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
		for _, tgt := range targets {
			dicttest.FuzzOps(t, tgt, data)
		}
	}
	for _, tgt := range targets {
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
func staleChildHeightScripts(t *testing.T, tgt dicttest.Target) {
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
func deleteAndDieBeforeCleanup(t *testing.T, d dict.IntMap, key int64) {
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

// TestRegistryCoversAllStructures pins the registry contents the harness
// and the figures rely on - the paper's own algorithms (chromatic trees),
// the engine-based trees (EBST, RAVL) and the competitors - and requires
// every one of them to be an ordered map: since the generic unification,
// Successor/Predecessor are part of every structure's contract.
func TestRegistryCoversAllStructures(t *testing.T) {
	for _, name := range []string{"Chromatic", "Chromatic6", "RAVL", "EBST", "SkipList", "LockAVL", "RBSTM", "SkipListSTM", "RBGlobal"} {
		f, ok := bench.Lookup(name)
		if !ok {
			t.Errorf("registry is missing %q", name)
			continue
		}
		if _, ok := f.New().(dict.IntOrderedMap); !ok {
			t.Errorf("%s does not implement dict.OrderedMap", name)
		}
	}
	if err := quickSmoke(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryAndFigure8StayInSync checks that every registry name, the
// name the Figure 8 table prints, resolves through Lookup to the factory
// registered under it.
func TestRegistryAndFigure8StayInSync(t *testing.T) {
	for _, name := range bench.Names() {
		if f, ok := bench.Lookup(name); !ok || f.Name != name {
			t.Errorf("registry name %q does not resolve through Lookup", name)
		}
	}
}

// TestSnapshotConformance runs the shared snapshot suite - frozen views that
// never observe post-snapshot updates (including in-place overwrites),
// consistent-cut checks under concurrent churn, and the hold-churn
// reclamation stress - over every structure in the registry, and pins which
// structures are Snapshotters: exactly the LLX/SCX trees. The baselines have
// no snapshots, and the suite skips them.
func TestSnapshotConformance(t *testing.T) {
	var snapshotters []string
	for _, tgt := range allConcurrentTargets(t) {
		if _, ok := tgt.New().(dict.IntSnapshotter); ok {
			snapshotters = append(snapshotters, tgt.Name)
		}
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.SnapshotSuite(t, tgt)
		})
	}
	slices.Sort(snapshotters)
	if want := []string{"Chromatic", "Chromatic6", "EBST", "RAVL"}; !slices.Equal(snapshotters, want) {
		t.Errorf("registry structures implementing dict.IntSnapshotter = %v, want %v", snapshotters, want)
	}
}

// TestStringKeyedSnapshotConformance runs the snapshot suite over the
// string-keyed instantiations of the template trees: the frozen walk must
// not assume integer keys. The key derivation is injective (unlike
// stringKey) because the consistent-cut check needs per-writer disjoint keys.
func TestStringKeyedSnapshotConformance(t *testing.T) {
	snapKey := func(u uint64) string { return fmt.Sprintf("s%06d", u%100000) }
	for _, tgt := range allStringConcurrentTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.SnapshotSuiteKV(t, tgt, snapKey, stringVal)
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
	for _, tgt := range allSequentialTargets(t) {
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

// quickSmoke double-checks that factories return independent instances.
func quickSmoke() error {
	f, _ := bench.Lookup("RAVL")
	a, b := f.New(), f.New()
	a.Insert(1, 1)
	if _, ok := b.Get(1); ok {
		return fmt.Errorf("factories share state")
	}
	return nil
}
