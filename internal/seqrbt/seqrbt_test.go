package seqrbt

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Delete(1); ok {
		t.Fatal("Delete on empty tree returned ok")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatal("empty tree has nonzero size or height")
	}
}

func TestInsertGetDeleteBasic(t *testing.T) {
	tr := New()
	if _, existed := tr.Insert(10, 1); existed {
		t.Fatal("fresh insert reported existed")
	}
	if old, existed := tr.Insert(10, 2); !existed || old != 1 {
		t.Fatalf("second insert = (%d,%v)", old, existed)
	}
	if v, ok := tr.Get(10); !ok || v != 2 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if old, existed := tr.Delete(10); !existed || old != 2 {
		t.Fatalf("Delete = (%d,%v)", old, existed)
	}
	if _, ok := tr.Get(10); ok {
		t.Fatal("key present after delete")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ident is the suites' key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestSequentialConformance runs the shared sequential suite over a key
// range ten times the root TestOrderedMapConformance's, so
// the tree grows deeper.
func TestSequentialConformance(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "SeqRBT",
		New:   func() dict.Map[int64, int64] { return New() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckInvariants() },
	}
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, tgt, 10000, 2000, ident, ident, seed)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New()
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), int64(i)) // worst case for naive BSTs
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	maxHeight := 0
	for v := 1; v < n+1; v *= 2 {
		maxHeight++
	}
	maxHeight = 2*maxHeight + 2
	if h := tr.Height(); h > maxHeight {
		t.Fatalf("height %d exceeds red-black bound %d", h, maxHeight)
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	tr := New()
	for k := int64(0); k < 100; k += 10 {
		tr.Insert(k, k)
	}
	if k, _, ok := tr.Successor(45); !ok || k != 50 {
		t.Fatalf("Successor(45) = (%d,%v)", k, ok)
	}
	if k, _, ok := tr.Successor(90); ok {
		t.Fatalf("Successor(90) = (%d,%v), want none", k, ok)
	}
	if k, _, ok := tr.Predecessor(45); !ok || k != 40 {
		t.Fatalf("Predecessor(45) = (%d,%v)", k, ok)
	}
	if k, _, ok := tr.Predecessor(0); ok {
		t.Fatalf("Predecessor(0) = (%d,%v), want none", k, ok)
	}
}

// TestPropertyRedBlackInvariants uses testing/quick to check that arbitrary
// insert/delete sequences preserve the red-black properties.
func TestPropertyRedBlackInvariants(t *testing.T) {
	prop := func(insert []int16, del []int16) bool {
		tr := New()
		for _, k := range insert {
			tr.Insert(int64(k), int64(k))
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for _, k := range del {
			tr.Delete(int64(k))
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeleteAllLeavesEmpty(t *testing.T) {
	prop := func(keys []int32) bool {
		tr := New()
		set := map[int64]bool{}
		for _, k := range keys {
			tr.Insert(int64(k), 0)
			set[int64(k)] = true
		}
		for k := range set {
			if _, ok := tr.Delete(k); !ok {
				return false
			}
		}
		return tr.Size() == 0 && tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalConcurrentStress runs the shared-key recorded stress over the
// global-lock wrapper alone: eight goroutines of 2 000 operations on sixteen
// shared keys.
func TestGlobalConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "RBGlobal",
		New:   func() dict.Map[int64, int64] { return NewGlobalOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Global[int64, int64]).CheckInvariants() },
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}

func TestGlobalWrapperConcurrent(t *testing.T) {
	g := NewGlobalOrdered[int64, int64]()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := int64(id * perG)
			for k := int64(0); k < perG; k++ {
				g.Insert(base+k, k)
			}
			for k := int64(0); k < perG; k += 2 {
				g.Delete(base + k)
			}
		}(i)
	}
	wg.Wait()
	if got, want := g.Size(), goroutines*perG/2; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if _, _, ok := g.Successor(0); !ok {
		t.Fatal("Successor failed on populated map")
	}
	if _, _, ok := g.Predecessor(int64(goroutines * perG)); !ok {
		t.Fatal("Predecessor failed on populated map")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
