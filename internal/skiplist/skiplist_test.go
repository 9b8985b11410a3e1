package skiplist

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/dict/dicttest"
)

func TestEmpty(t *testing.T) {
	l := NewOrdered[int64, int64]()
	if _, ok := l.Get(5); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if _, ok := l.Delete(5); ok {
		t.Fatal("Delete on empty list returned ok")
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d, want 0", l.Size())
	}
	if _, _, ok := l.Successor(0); ok {
		t.Fatal("Successor on empty list returned ok")
	}
	if _, _, ok := l.Predecessor(0); ok {
		t.Fatal("Predecessor on empty list returned ok")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOperations(t *testing.T) {
	l := NewOrdered[int64, int64]()
	if _, existed := l.Insert(7, 70); existed {
		t.Fatal("fresh insert reported existed")
	}
	if v, ok := l.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = (%d,%v)", v, ok)
	}
	if old, existed := l.Insert(7, 71); !existed || old != 70 {
		t.Fatalf("overwrite = (%d,%v)", old, existed)
	}
	if old, existed := l.Delete(7); !existed || old != 71 {
		t.Fatalf("Delete = (%d,%v)", old, existed)
	}
	if _, ok := l.Get(7); ok {
		t.Fatal("key present after delete")
	}
	if _, existed := l.Delete(7); existed {
		t.Fatal("double delete reported existed")
	}
}

// ident is the suites' key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestSequentialConformance runs the shared sequential suite over a key
// range four times the root TestOrderedMapConformance's, so
// towers grow taller.
func TestSequentialConformance(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "SkipList",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*List[int64, int64]).CheckInvariants() },
	}
	for seed := int64(1); seed <= 3; seed++ {
		dicttest.SequentialConformance(t, tgt, 8000, 800, ident, ident, seed)
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
	if k, _, ok := l.Successor(40); !ok || k != 50 {
		t.Fatalf("Successor(40) = (%d,%v), want 50", k, ok)
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
		Name:  "SkipList",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*List[int64, int64]).CheckInvariants() },
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}

// TestTowerLinkedInFrontOfItsOwnSuccessor runs the shared-key stress a
// hundred times, eight goroutines of 1 000 operations over 3 200 keys: the
// list is still filling, so many towers are being linked at once. An insert
// that re-finds while it links its tower gets fresh successors for every
// level, and must point the new node at the successor of the level it links
// next, not at the one it started with: linking in front of the stale one
// unlinks, from that level only, a node that arrived in between, which the
// quiescent check reports as "tower node missing from lower level". Before
// Insert refreshed the link ahead of every casLink, 23 of 300 rounds of
// this shape hit that, and six of six runs of the loop failed.
func TestTowerLinkedInFrontOfItsOwnSuccessor(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "SkipList",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*List[int64, int64]).CheckInvariants() },
	}
	for round := 0; round < 100 && !t.Failed(); round++ {
		dicttest.SharedKeyStress(t, tgt, 8, 1000, 3200, ident, ident)
	}
}

func TestConcurrentContention(t *testing.T) {
	l := NewOrdered[int64, int64]()
	const goroutines = 16
	const opsPerG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				key := rng.Int63n(32)
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
	if l.Size() > 32 {
		t.Fatalf("Size = %d exceeds key range", l.Size())
	}
}

func TestConcurrentReadersSeeStableEvenKeys(t *testing.T) {
	l := NewOrdered[int64, int64]()
	const keyRange = 1 << 10
	for k := int64(0); k < keyRange; k += 2 {
		l.Insert(k, k)
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
					l.Insert(key, key)
				} else {
					l.Delete(key)
				}
			}
		}(w)
	}
	errs := make(chan error, 4)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20000; i++ {
				key := rng.Int63n(keyRange/2) * 2
				if v, ok := l.Get(key); !ok || v != key {
					errs <- errMismatch
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	select {
	case <-errs:
		t.Fatal("reader observed a missing or corrupted even key")
	default:
	}
}

type constError string

func (e constError) Error() string { return string(e) }

const errMismatch = constError("mismatch")

func TestRandomLevelDistribution(t *testing.T) {
	counts := make([]int, maxLevel+1)
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[randomLevel()]++
	}
	if counts[0] < samples/3 {
		t.Fatalf("level 0 frequency %d suspiciously low", counts[0])
	}
	for lvl := 0; lvl < 4; lvl++ {
		if counts[lvl] == 0 {
			t.Fatalf("level %d never chosen in %d samples", lvl, samples)
		}
		if lvl > 0 && counts[lvl] > counts[lvl-1] {
			t.Fatalf("level %d chosen more often than level %d", lvl, lvl-1)
		}
	}
}
