package stmrbt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

// target is the shared-suite target for the int64 instantiation: the
// model-based conformance, fuzz and stress logic lives in
// internal/dict/dicttest; this package only supplies the constructor and the
// quiescent invariant check.
func target() dicttest.Target {
	return dicttest.Target{
		Name: "RBSTM",
		New:  func() dict.IntMap { return New() },
		Check: func(d dict.IntMap) error {
			return d.(*Tree[int64, int64]).CheckInvariants()
		},
	}
}

func TestBasicOperations(t *testing.T) {
	tr := New()
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

func TestSequentialConformance(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, target(), 6000, 600, seed)
	}
	// A tiny key range maximizes rotation churn per key.
	dicttest.SequentialConformance(t, target(), 3000, 8, 99)
}

// TestStringKeys runs the conformance suite over the string-keyed
// instantiation, exercising NewOrdered's generic construction path.
func TestStringKeys(t *testing.T) {
	tgt := dicttest.TargetOf[string, string]{
		Name: "RBSTM/string",
		New:  func() dict.Map[string, string] { return NewOrdered[string, string]() },
		Check: func(d dict.Map[string, string]) error {
			return d.(*Tree[string, string]).CheckInvariants()
		},
	}
	dicttest.SequentialConformanceKV(t, tgt, 5000,
		func(u uint64) string { return fmt.Sprintf("k%03d", u%200) },
		func(u uint64) string { return fmt.Sprintf("v%d", u%1024) },
		5)
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

func TestConcurrentStress(t *testing.T) {
	dicttest.ConcurrentStress(t, target(), 8, 1500, 150)
}

func TestConcurrentContention(t *testing.T) {
	tr := New()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := rng.Int63n(48)
				switch rng.Intn(3) {
				case 0:
					tr.Insert(key, key)
				case 1:
					tr.Delete(key)
				default:
					if v, ok := tr.Get(key); ok && v != key {
						t.Errorf("Get(%d) = %d", key, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after contention: %v", err)
	}
	keys := tr.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order: %d >= %d", keys[i-1], keys[i])
		}
	}
}
