package lockavl

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

func TestBasicOperations(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	if _, ok := tr.Get(9); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, existed := tr.Insert(9, 90); existed {
		t.Fatal("fresh insert reported existed")
	}
	if v, ok := tr.Get(9); !ok || v != 90 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if old, existed := tr.Insert(9, 91); !existed || old != 90 {
		t.Fatalf("overwrite = (%d,%v)", old, existed)
	}
	if old, existed := tr.Delete(9); !existed || old != 91 {
		t.Fatalf("Delete = (%d,%v)", old, existed)
	}
	if _, ok := tr.Get(9); ok {
		t.Fatal("present after delete")
	}
	if _, existed := tr.Delete(9); existed {
		t.Fatal("double delete reported existed")
	}
}

func TestLogicalDeleteAndReinsert(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	// Build a node with two children, delete it (logically), then reinsert
	// the same key: the routing node must be reactivated.
	tr.Insert(50, 1)
	tr.Insert(25, 2)
	tr.Insert(75, 3)
	if old, existed := tr.Delete(50); !existed || old != 1 {
		t.Fatalf("Delete(50) = (%d,%v)", old, existed)
	}
	if _, ok := tr.Get(50); ok {
		t.Fatal("logically deleted key still visible")
	}
	if tr.Size() != 2 {
		t.Fatalf("Size = %d, want 2", tr.Size())
	}
	if _, existed := tr.Insert(50, 9); existed {
		t.Fatal("reinsert of routing node reported existed")
	}
	if v, ok := tr.Get(50); !ok || v != 9 {
		t.Fatalf("Get(50) after reinsert = (%d,%v)", v, ok)
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
		Name:  "LockAVL",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckInvariants() },
	}
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, tgt, 8000, 600, ident, ident, seed)
	}
}

func TestBalanceUnderSequentialInsertions(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	const n = 1 << 13
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	log2 := 0
	for v := 1; v < n; v *= 2 {
		log2++
	}
	// Relaxed AVL: allow a generous constant factor over the ideal height.
	if h := tr.Height(); h > 3*log2 {
		t.Fatalf("height %d too large for %d sequentially inserted keys (log2=%d)", h, n, log2)
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	for k := int64(0); k < 100; k += 10 {
		tr.Insert(k, k)
	}
	tr.Delete(50) // logical or physical, must be skipped by queries
	if k, _, ok := tr.Successor(40); !ok || k != 60 {
		t.Fatalf("Successor(40) = (%d,%v), want 60", k, ok)
	}
	if k, _, ok := tr.Predecessor(60); !ok || k != 40 {
		t.Fatalf("Predecessor(60) = (%d,%v), want 40", k, ok)
	}
	if _, _, ok := tr.Successor(90); ok {
		t.Fatal("Successor(90) should not exist")
	}
	if _, _, ok := tr.Predecessor(0); ok {
		t.Fatal("Predecessor(0) should not exist")
	}
}

// TestConcurrentStress runs the shared-key recorded stress over this package
// alone: four goroutines of 10 000 operations on sixteen shared keys. Before
// Delete validated its misses against the structure stamp and
// structuresStable loaded inFlight ahead of structMods, this shape produced a
// non-linearizable history on 15 of 20 seeds on a two-CPU host; with both
// fixes it passed 60 of 60.
func TestConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "LockAVL",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckInvariants() },
	}
	dicttest.SharedKeyStress(t, tgt, 4, 10000, 16, ident, ident)
}

func TestConcurrentContention(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
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

func TestConcurrentReadersSeeStableEvenKeys(t *testing.T) {
	tr := NewOrdered[int64, int64]()
	const keyRange = 1 << 10
	for k := int64(0); k < keyRange; k += 2 {
		tr.Insert(k, k)
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := rng.Int63n(keyRange/2)*2 + 1
				if rng.Intn(2) == 0 {
					tr.Insert(key, key)
				} else {
					tr.Delete(key)
				}
			}
		}(w)
	}
	failures := make(chan int64, 4)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20000; i++ {
				key := rng.Int63n(keyRange/2) * 2
				if v, ok := tr.Get(key); !ok || v != key {
					failures <- key
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	select {
	case key := <-failures:
		t.Fatalf("reader failed to find stable even key %d", key)
	default:
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
