package stmskip

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
		Name: "SkipListSTM",
		New:  func() dict.IntMap { return New() },
		Check: func(d dict.IntMap) error {
			return d.(*List[int64, int64]).CheckInvariants()
		},
	}
}

func TestBasicOperations(t *testing.T) {
	l := New()
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

func TestSequentialConformance(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, target(), 6000, 600, seed)
	}
	// A tiny key range maximizes tower churn per key.
	dicttest.SequentialConformance(t, target(), 3000, 8, 99)
}

// TestStringKeys runs the conformance suite over the string-keyed
// instantiation, exercising NewOrdered's generic construction path.
func TestStringKeys(t *testing.T) {
	tgt := dicttest.TargetOf[string, string]{
		Name: "SkipListSTM/string",
		New:  func() dict.Map[string, string] { return NewOrdered[string, string]() },
		Check: func(d dict.Map[string, string]) error {
			return d.(*List[string, string]).CheckInvariants()
		},
	}
	dicttest.SequentialConformanceKV(t, tgt, 5000,
		func(u uint64) string { return fmt.Sprintf("k%03d", u%200) },
		func(u uint64) string { return fmt.Sprintf("v%d", u%1024) },
		5)
}

func TestSuccessorPredecessor(t *testing.T) {
	l := New()
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

func TestConcurrentStress(t *testing.T) {
	dicttest.ConcurrentStress(t, target(), 8, 1500, 150)
}

func TestConcurrentContention(t *testing.T) {
	l := New()
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
					l.Insert(key, key)
				case 1:
					l.Delete(key)
				default:
					if v, ok := l.Get(key); ok && v != key {
						t.Errorf("Get(%d) = %d", key, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after contention: %v", err)
	}
	keys := l.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order: %d >= %d", keys[i-1], keys[i])
		}
	}
}
