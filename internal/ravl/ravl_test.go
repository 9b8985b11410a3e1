package ravl

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
	"repro/internal/epoch"
	"repro/internal/lbst"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Delete(1); ok {
		t.Fatal("Delete on empty tree returned ok")
	}
	if tr.Size() != 0 {
		t.Fatalf("Size = %d, want 0", tr.Size())
	}
	if _, _, ok := tr.Successor(0); ok {
		t.Fatal("Successor on empty tree returned ok")
	}
	if _, _, ok := tr.Predecessor(0); ok {
		t.Fatal("Predecessor on empty tree returned ok")
	}
	if err := tr.CheckAVL(); err != nil {
		t.Fatalf("CheckAVL on empty tree: %v", err)
	}
}

func TestBasicOperations(t *testing.T) {
	tr := New()
	if _, existed := tr.Insert(5, 50); existed {
		t.Fatal("fresh insert reported existed")
	}
	if v, ok := tr.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if old, existed := tr.Insert(5, 55); !existed || old != 50 {
		t.Fatalf("update insert = %d,%v", old, existed)
	}
	if old, existed := tr.Delete(5); !existed || old != 55 {
		t.Fatalf("Delete(5) = %d,%v", old, existed)
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("key still present after delete")
	}
	if err := tr.CheckAVL(); err != nil {
		t.Fatalf("CheckAVL: %v", err)
	}
}

// TestSequentialKeepsExactAVL verifies the heart of the relaxed scheme:
// with no concurrency, every update's cleanup pass restores an exact AVL
// tree (correct stored heights everywhere, all balance factors within one),
// while the dictionary behaviour matches a model map.
func TestSequentialKeepsExactAVL(t *testing.T) {
	tr := New()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		key := rng.Int63n(400)
		switch rng.Intn(3) {
		case 0:
			val := rng.Int63()
			old, existed := tr.Insert(key, val)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Insert(%d) = (%d,%v), model (%d,%v)", i, key, old, existed, mOld, mExisted)
			}
			model[key] = val
		case 1:
			old, existed := tr.Delete(key)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), model (%d,%v)", i, key, old, existed, mOld, mExisted)
			}
			delete(model, key)
		default:
			v, ok := tr.Get(key)
			mV, mOk := model[key]
			if ok != mOk || (ok && v != mV) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, key, v, ok, mV, mOk)
			}
		}
		if i%997 == 0 {
			if err := tr.CheckAVL(); err != nil {
				t.Fatalf("op %d: CheckAVL: %v", i, err)
			}
		}
	}
	if err := tr.CheckAVL(); err != nil {
		t.Fatalf("final CheckAVL: %v", err)
	}
	if tr.Size() != len(model) {
		t.Fatalf("Size = %d, want %d", tr.Size(), len(model))
	}
	keys := tr.Keys()
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

// TestHeightWithinAVLBound inserts an adversarial (sorted) key sequence and
// checks the height stays within the AVL bound ~1.44*log2(n), which an
// unbalanced leaf-oriented BST would fail spectacularly (height n).
func TestHeightWithinAVLBound(t *testing.T) {
	tr := New()
	const n = 1 << 12
	for i := int64(0); i < n; i++ {
		tr.Insert(i, i)
	}
	if err := tr.CheckAVL(); err != nil {
		t.Fatalf("CheckAVL after sorted inserts: %v", err)
	}
	bound := HeightBound(n)
	if h := tr.Height(); h > bound {
		t.Fatalf("height %d exceeds AVL bound %d for %d keys", h, bound, n)
	}
	if s := tr.Stats(); s.RebalanceTotal() == 0 {
		t.Fatal("no rebalancing steps were performed on a sorted insert sequence")
	}
}

func TestOrderedQueries(t *testing.T) {
	tr := New()
	keys := []int64{5, 10, 17, 23, 42, 77, 100}
	for _, k := range keys {
		tr.Insert(k, k*2)
	}
	if k, v, ok := tr.Successor(17); !ok || k != 23 || v != 46 {
		t.Fatalf("Successor(17) = (%d,%d,%v), want (23,46,true)", k, v, ok)
	}
	if k, _, ok := tr.Successor(100); ok {
		t.Fatalf("Successor(100) = (%d,_,%v), want none", k, ok)
	}
	if k, v, ok := tr.Predecessor(23); !ok || k != 17 || v != 34 {
		t.Fatalf("Predecessor(23) = (%d,%d,%v), want (17,34,true)", k, v, ok)
	}
	if k, _, ok := tr.Predecessor(5); ok {
		t.Fatalf("Predecessor(5) = (%d,_,%v), want none", k, ok)
	}
	if k, _, ok := tr.Min(); !ok || k != 5 {
		t.Fatalf("Min = %d,%v, want 5", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || k != 100 {
		t.Fatalf("Max = %d,%v, want 100", k, ok)
	}
	var got []int64
	tr.RangeScan(10, 77, func(k, v int64) bool { got = append(got, k); return true })
	want := []int64{10, 17, 23, 42, 77}
	if len(got) != len(want) {
		t.Fatalf("RangeScan visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeScan visited %v, want %v", got, want)
		}
	}
}

// TestConcurrentStress runs the shared-key recorded stress over this package
// alone: eight goroutines of 2 000 operations on sixteen shared keys. At
// quiescence the relaxed violations are drained and the tree must be an
// exact AVL tree.
func TestConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name: "RAVL",
		New:  func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error {
			tr := d.(*Tree[int64, int64])
			if err := tr.CheckStructure(); err != nil {
				return err
			}
			if _, err := tr.RebalanceAll(DrainCap(tr.Size())); err != nil {
				return err
			}
			return tr.CheckAVL()
		},
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}

// ident is the suite's key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestRelaxationStaysBounded runs an update-heavy concurrent workload and
// checks that, at quiescence, the number of leftover violations (the debt
// the relaxed scheme defers) is a small fraction of the tree, and that the
// height never strays far from the AVL bound once that debt is drained.
func TestRelaxationStaysBounded(t *testing.T) {
	tr := New()
	const goroutines = 8
	const keyRange = 1 << 14
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 20000; i++ {
				key := rng.Int63n(keyRange)
				if rng.Intn(2) == 0 {
					tr.Insert(key, key)
				} else {
					tr.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	n := tr.Size()
	leftover := tr.CountViolations()
	t.Logf("n=%d height=%d leftover violations=%d", n, tr.Height(), leftover)
	if n > 0 && leftover > n/2 {
		t.Fatalf("excessive leftover violations at quiescence: %d for %d keys", leftover, n)
	}
	steps, err := tr.RebalanceAll(DrainCap(tr.Size()))
	if err != nil {
		t.Fatalf("RebalanceAll: %v", err)
	}
	if err := tr.CheckAVL(); err != nil {
		t.Fatalf("CheckAVL after %d drain steps: %v", steps, err)
	}
	bound := HeightBound(n)
	if h := tr.Height(); h > bound {
		t.Fatalf("height %d exceeds AVL bound %d for %d keys", h, bound, n)
	}
}

// deferring is the relaxed AVL policy with a switch that holds back every
// cleanup, so that a single goroutine can leave behind what otherwise only
// concurrent updates do: a stale height below an unbalanced node.
type deferring struct {
	*policy[int64, int64]
	hold *bool
}

func (d deferring) CreatesViolation(key int64, parent, oldChild, newChild *lbst.Node[int64, int64]) bool {
	return !*d.hold && d.policy.CreatesViolation(key, parent, oldChild, newChild)
}

// TestCleanupFixesStaleChildHeightFirst reaches the two steps no sequential
// run of the public operations can: cleanup walks top-down, so when deferred
// deletions have left a node unbalanced AND its taller child's stored height
// stale, it meets the unbalanced node first and must correct the child's
// height before it may rotate. Each script builds an exact AVL tree of keys
// 1..fill, deletes some keys with cleanup held back, and then deletes one
// more key with cleanup restored.
func TestCleanupFixesStaleChildHeightFirst(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fill    int64
		held    []int64
		trigger int64
		step    func(*Stats) *epoch.Counter
	}{
		{"left child", 7, []int64{6, 3, 5}, 2, func(s *Stats) *epoch.Counter { return &s.ChildHeightFixes }},
		{"right child", 9, []int64{9}, 6, func(s *Stats) *epoch.Counter { return &s.MirrorChildHeightFixes }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Tree[int64, int64]{}
			tr.stats.init()
			tr.pol = &policy[int64, int64]{stats: &tr.stats}
			hold := false
			tr.Tree = lbst.NewOrdered[int64, int64](deferring{tr.pol, &hold})
			tr.pol.eng = tr.Tree
			for k := int64(1); k <= tc.fill; k++ {
				tr.Insert(k, k)
			}
			if err := tr.CheckAVL(); err != nil {
				t.Fatalf("after the fill: %v", err)
			}
			hold = true
			for _, k := range tc.held {
				tr.Delete(k)
			}
			hold = false
			tr.Delete(tc.trigger)
			if n := tc.step(tr.Stats()).Load(); n == 0 {
				t.Fatalf("the cleanup of Delete(%d) performed no child height fix", tc.trigger)
			}
			if _, err := tr.RebalanceAll(DrainCap(tr.Size())); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckAVL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
