package stmskip

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

func TestBasicOperations(t *testing.T) {
	l := NewOrdered[int64, int64]()
	if _, ok := l.Get(3); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if _, existed := l.Insert(3, 30); existed {
		t.Fatal("fresh insert reported existed")
	}
	if v, ok := l.Get(3); !ok || v != 30 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if old, existed := l.Insert(3, 31); !existed || old != 30 {
		t.Fatalf("overwrite = (%d,%v)", old, existed)
	}
	if old, existed := l.Delete(3); !existed || old != 31 {
		t.Fatalf("Delete = (%d,%v)", old, existed)
	}
	if _, existed := l.Delete(3); existed {
		t.Fatal("double delete reported existed")
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d, want 0", l.Size())
	}
}

// ident is the suites' key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestSequentialConformance runs the shared sequential suite over a key
// range three times the root TestOrderedMapConformance's, so
// towers grow taller.
func TestSequentialConformance(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "SkipListSTM",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*List[int64, int64]).CheckInvariants() },
	}
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, tgt, 6000, 600, ident, ident, seed)
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	l := NewOrdered[int64, int64]()
	for k := int64(0); k < 100; k += 10 {
		l.Insert(k, k*2)
	}
	if k, v, ok := l.Successor(45); !ok || k != 50 || v != 100 {
		t.Fatalf("Successor(45) = (%d,%d,%v)", k, v, ok)
	}
	if k, _, ok := l.Successor(90); ok {
		t.Fatalf("Successor(90) = (%d,%v), want none", k, ok)
	}
	if k, v, ok := l.Predecessor(45); !ok || k != 40 || v != 80 {
		t.Fatalf("Predecessor(45) = (%d,%d,%v)", k, v, ok)
	}
	if k, _, ok := l.Predecessor(0); ok {
		t.Fatalf("Predecessor(0) = (%d,%v), want none", k, ok)
	}
}

// TestConcurrentStress runs the shared-key recorded stress over this package
// alone: eight goroutines of 2 000 operations on sixteen shared keys.
func TestConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "SkipListSTM",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*List[int64, int64]).CheckInvariants() },
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}
