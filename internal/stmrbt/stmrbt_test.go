package stmrbt

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

func TestBasicOperations(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	if _, ok := tr.Get(4); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, existed := tr.Insert(4, 40); existed {
		t.Fatal("fresh insert reported existed")
	}
	if v, ok := tr.Get(4); !ok || v != 40 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if old, existed := tr.Insert(4, 41); !existed || old != 40 {
		t.Fatalf("overwrite = (%d,%v)", old, existed)
	}
	if old, existed := tr.Delete(4); !existed || old != 41 {
		t.Fatalf("Delete = (%d,%v)", old, existed)
	}
	if _, existed := tr.Delete(4); existed {
		t.Fatal("double delete reported existed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ident is the suites' key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestSequentialConformance runs the shared sequential suite over a key
// range three times the root TestOrderedMapConformance's, so
// the tree grows deeper.
func TestSequentialConformance(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "RBSTM",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckInvariants() },
	}
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, tgt, 6000, 600, ident, ident, seed)
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	tr := NewOrdered[int64, int64]()
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

// TestConcurrentStress runs the shared-key recorded stress over this package
// alone: eight goroutines of 2 000 operations on sixteen shared keys.
func TestConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "RBSTM",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckInvariants() },
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}
