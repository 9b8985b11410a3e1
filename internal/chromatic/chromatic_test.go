package chromatic

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants on empty tree: %v", err)
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Delete(5); ok {
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
	if tr.Height() != 0 {
		t.Fatalf("Height = %d, want 0", tr.Height())
	}
}

func TestSingleInsertGetDelete(t *testing.T) {
	tr := New()
	if _, existed := tr.Insert(42, 100); existed {
		t.Fatal("Insert of new key reported existed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if v, ok := tr.Get(42); !ok || v != 100 {
		t.Fatalf("Get(42) = %d,%v want 100,true", v, ok)
	}
	if old, existed := tr.Insert(42, 200); !existed || old != 100 {
		t.Fatalf("re-Insert = %d,%v want 100,true", old, existed)
	}
	if v, ok := tr.Get(42); !ok || v != 200 {
		t.Fatalf("Get(42) after update = %d,%v want 200,true", v, ok)
	}
	if old, existed := tr.Delete(42); !existed || old != 200 {
		t.Fatalf("Delete(42) = %d,%v want 200,true", old, existed)
	}
	if _, ok := tr.Get(42); ok {
		t.Fatal("Get after Delete returned ok")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after delete: %v", err)
	}
	if tr.Size() != 0 {
		t.Fatalf("Size = %d, want 0", tr.Size())
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	tr := New()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(1))
	const ops = 20000
	const keyRange = 500
	for i := 0; i < ops; i++ {
		key := rng.Int63n(keyRange)
		switch rng.Intn(3) {
		case 0: // insert
			val := rng.Int63()
			old, existed := tr.Insert(key, val)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Insert(%d) = (%d,%v), model (%d,%v)", i, key, old, existed, mOld, mExisted)
			}
			model[key] = val
		case 1: // delete
			old, existed := tr.Delete(key)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), model (%d,%v)", i, key, old, existed, mOld, mExisted)
			}
			delete(model, key)
		case 2: // get
			v, ok := tr.Get(key)
			mV, mOk := model[key]
			if ok != mOk || (ok && v != mV) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, key, v, ok, mV, mOk)
			}
		}
		if i%2000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: invariants: %v", i, err)
			}
		}
	}
	if tr.Size() != len(model) {
		t.Fatalf("Size = %d, model has %d keys", tr.Size(), len(model))
	}
	// Every model key must be present with the right value.
	for k, v := range model {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("final Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	// The in-order key sequence must match the sorted model keys.
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := tr.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if err := tr.CheckRedBlack(); err != nil {
		t.Fatalf("tree is not a red-black tree at quiescence: %v", err)
	}
}

func TestAscendingAndDescendingInsertions(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(i int) int64
	}{
		{"ascending", func(i int) int64 { return int64(i) }},
		{"descending", func(i int) int64 { return int64(10000 - i) }},
		{"zigzag", func(i int) int64 {
			if i%2 == 0 {
				return int64(i)
			}
			return int64(20000 - i)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New()
			const n = 4096
			for i := 0; i < n; i++ {
				tr.Insert(tc.gen(i), int64(i))
			}
			if tr.Size() != n {
				t.Fatalf("Size = %d, want %d", tr.Size(), n)
			}
			if err := tr.CheckRedBlack(); err != nil {
				t.Fatalf("not balanced after %s insertions: %v", tc.name, err)
			}
			// A red-black tree with n keys has height at most 2*log2(n+1)+1;
			// add the +1 slack for the leaf-oriented representation.
			maxHeight := 2*log2(n+1) + 2
			if h := tr.Height(); h > maxHeight {
				t.Fatalf("height %d exceeds red-black bound %d for %d keys", h, maxHeight, n)
			}
		})
	}
}

func log2(n int) int {
	h := 0
	for v := 1; v < n; v *= 2 {
		h++
	}
	return h
}

func TestRebalancingStepsAreExercised(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	const keyRange = 2000
	for i := 0; i < 200000; i++ {
		key := rng.Int63n(keyRange)
		if rng.Intn(2) == 0 {
			tr.Insert(key, key)
		} else {
			tr.Delete(key)
		}
	}
	s := tr.Stats()
	if s.RebalanceTotal() == 0 {
		t.Fatal("no rebalancing steps were performed")
	}
	// The common steps must all have fired in a workload of this size. (The
	// W3/W4 family needs specific weight patterns and may legitimately be
	// rare, so only warn about them.)
	mustFire := map[string]int64{
		"BLK":   s.BLK.Load(),
		"RB1":   s.RB1.Load(),
		"RB2":   s.RB2.Load(),
		"RB1s":  s.MirrorRB1.Load(),
		"RB2s":  s.MirrorRB2.Load(),
		"PUSH":  s.PUSH.Load(),
		"PUSHs": s.MirrorPUSH.Load(),
		"W5":    s.W5.Load(),
		"W5s":   s.MirrorW5.Load(),
		"W6":    s.W6.Load(),
		"W6s":   s.MirrorW6.Load(),
	}
	for name, count := range mustFire {
		if count == 0 {
			t.Errorf("rebalancing step %s never fired in a 200k-operation workload", name)
		}
	}
	rare := map[string]int64{
		"W1": s.W1.Load(), "W1s": s.MirrorW1.Load(),
		"W2": s.W2.Load(), "W2s": s.MirrorW2.Load(),
		"W3": s.W3.Load(), "W3s": s.MirrorW3.Load(),
		"W4": s.W4.Load(), "W4s": s.MirrorW4.Load(),
		"W7": s.W7.Load(), "W7s": s.MirrorW7.Load(),
	}
	for name, count := range rare {
		if count == 0 {
			t.Logf("note: rare rebalancing step %s did not fire in this workload", name)
		}
	}
	if err := tr.CheckRedBlack(); err != nil {
		t.Fatalf("tree not balanced at quiescence: %v", err)
	}
}

func TestChromatic6DefersRebalancing(t *testing.T) {
	plain := New()
	relaxed := NewOrdered[int64, int64](WithAllowedViolations(6))
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	for i := 0; i < n; i++ {
		key := rng.Int63n(5000)
		plain.Insert(key, key)
		relaxed.Insert(key, key)
	}
	if err := plain.CheckRedBlack(); err != nil {
		t.Fatalf("plain chromatic tree unbalanced at quiescence: %v", err)
	}
	// Chromatic6 may retain violations, but the structural invariants must
	// hold and the number of violations is bounded by what its threshold
	// permits along each path.
	if err := relaxed.CheckInvariants(); err != nil {
		t.Fatalf("chromatic6 invariants: %v", err)
	}
	if plain.Size() != relaxed.Size() {
		t.Fatalf("sizes differ: %d vs %d", plain.Size(), relaxed.Size())
	}
	if relaxed.Stats().RebalanceTotal() > plain.Stats().RebalanceTotal() {
		t.Errorf("Chromatic6 performed more rebalancing (%d) than Chromatic (%d)",
			relaxed.Stats().RebalanceTotal(), plain.Stats().RebalanceTotal())
	}
}

func TestSuccessorPredecessorSequential(t *testing.T) {
	tr := New()
	keys := []int64{10, 20, 30, 40, 50, 60, 70}
	for _, k := range keys {
		tr.Insert(k, k*10)
	}
	for i, k := range keys {
		// Successor of k is keys[i+1].
		sk, sv, ok := tr.Successor(k)
		if i == len(keys)-1 {
			if ok {
				t.Fatalf("Successor(%d) = %d, want none", k, sk)
			}
		} else if !ok || sk != keys[i+1] || sv != keys[i+1]*10 {
			t.Fatalf("Successor(%d) = (%d,%d,%v), want (%d,%d,true)", k, sk, sv, ok, keys[i+1], keys[i+1]*10)
		}
		// Predecessor of k is keys[i-1].
		pk, pv, ok := tr.Predecessor(k)
		if i == 0 {
			if ok {
				t.Fatalf("Predecessor(%d) = %d, want none", k, pk)
			}
		} else if !ok || pk != keys[i-1] || pv != keys[i-1]*10 {
			t.Fatalf("Predecessor(%d) = (%d,%d,%v), want (%d,%d,true)", k, pk, pv, ok, keys[i-1], keys[i-1]*10)
		}
	}
	// Queries between stored keys.
	if sk, _, ok := tr.Successor(35); !ok || sk != 40 {
		t.Fatalf("Successor(35) = %d,%v want 40,true", sk, ok)
	}
	if pk, _, ok := tr.Predecessor(35); !ok || pk != 30 {
		t.Fatalf("Predecessor(35) = %d,%v want 30,true", pk, ok)
	}
	if sk, _, ok := tr.Successor(0); !ok || sk != 10 {
		t.Fatalf("Successor(0) = %d,%v want 10,true", sk, ok)
	}
	if pk, _, ok := tr.Predecessor(1000); !ok || pk != 70 {
		t.Fatalf("Predecessor(1000) = %d,%v want 70,true", pk, ok)
	}
	if k, v, ok := tr.Min(); !ok || k != 10 || v != 100 {
		t.Fatalf("Min = (%d,%d,%v), want (10,100,true)", k, v, ok)
	}
	if k, v, ok := tr.Max(); !ok || k != 70 || v != 700 {
		t.Fatalf("Max = (%d,%d,%v), want (70,700,true)", k, v, ok)
	}
}

func TestRangeScan(t *testing.T) {
	tr := New()
	for k := int64(0); k < 100; k += 2 {
		tr.Insert(k, k)
	}
	var got []int64
	n := tr.RangeScan(10, 20, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	want := []int64{10, 12, 14, 16, 18, 20}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("RangeScan visited %d keys (%v), want %v", n, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeScan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early termination.
	count := 0
	tr.RangeScan(0, 98, func(k, v int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early-terminated scan visited %d keys, want 3", count)
	}
}

func TestSuccessorAgainstModel(t *testing.T) {
	tr := New()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		k := rng.Int63n(1000)
		tr.Insert(k, k)
		model[k] = k
	}
	sorted := make([]int64, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for probe := int64(-5); probe < 1005; probe++ {
		idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe })
		sk, _, ok := tr.Successor(probe)
		if idx == len(sorted) {
			if ok {
				t.Fatalf("Successor(%d) = %d, want none", probe, sk)
			}
		} else if !ok || sk != sorted[idx] {
			t.Fatalf("Successor(%d) = (%d,%v), want %d", probe, sk, ok, sorted[idx])
		}
		pidx := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= probe })
		pk, _, ok := tr.Predecessor(probe)
		if pidx == 0 {
			if ok {
				t.Fatalf("Predecessor(%d) = %d, want none", probe, pk)
			}
		} else if !ok || pk != sorted[pidx-1] {
			t.Fatalf("Predecessor(%d) = (%d,%v), want %d", probe, pk, ok, sorted[pidx-1])
		}
	}
}

// TestPropertyInsertDeleteRoundTrip is a testing/quick property: inserting a
// set of keys and then deleting a subset leaves exactly the complement, and
// the tree stays balanced.
func TestPropertyInsertDeleteRoundTrip(t *testing.T) {
	prop := func(keys []int16, deleteMask []bool) bool {
		tr := New()
		present := map[int64]bool{}
		for _, k := range keys {
			tr.Insert(int64(k), int64(k))
			present[int64(k)] = true
		}
		for i, k := range keys {
			if i < len(deleteMask) && deleteMask[i] {
				tr.Delete(int64(k))
				delete(present, int64(k))
			}
		}
		if tr.Size() != len(present) {
			return false
		}
		for k := range present {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return tr.CheckRedBlack() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyKeysSorted is a testing/quick property: the in-order key
// sequence is always strictly increasing and matches the inserted set.
func TestPropertyKeysSorted(t *testing.T) {
	prop := func(keys []int32) bool {
		tr := New()
		set := map[int64]bool{}
		for _, k := range keys {
			tr.Insert(int64(k), 0)
			set[int64(k)] = true
		}
		got := tr.Keys()
		if len(got) != len(set) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		for _, k := range got {
			if !set[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDistinctKeyInsertions(t *testing.T) {
	tr := New()
	const goroutines = 8
	const perG = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := int64(g*perG + i)
				tr.Insert(key, key*2)
			}
		}(g)
	}
	wg.Wait()
	if got, want := tr.Size(), goroutines*perG; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	for k := int64(0); k < goroutines*perG; k++ {
		if v, ok := tr.Get(k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*2)
		}
	}
	if err := tr.CheckRedBlack(); err != nil {
		t.Fatalf("invariants after concurrent inserts: %v", err)
	}
}

func TestConcurrentContendedSmallKeyRange(t *testing.T) {
	// High contention: every goroutine hammers the same tiny key range. The
	// final structure must still be a valid balanced chromatic tree.
	tr := New()
	const goroutines = 16
	const opsPerG = 10000
	const keyRange = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < opsPerG; i++ {
				key := rng.Int63n(keyRange)
				switch rng.Intn(3) {
				case 0:
					tr.Insert(key, key)
				case 1:
					tr.Delete(key)
				case 2:
					tr.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.CheckRedBlack(); err != nil {
		t.Fatalf("invariants after contended workload: %v", err)
	}
	if s := tr.Size(); s > keyRange {
		t.Fatalf("Size = %d larger than key range %d", s, keyRange)
	}
}

func TestConcurrentReadersDuringUpdates(t *testing.T) {
	// Even keys are always present with value == key; writers churn odd keys
	// and rewrite even keys with the same value. Readers must therefore
	// always find even keys, and Successor results must be in range, no
	// matter how the tree is being restructured underneath them.
	tr := New()
	const keyRange = 1 << 12
	for k := int64(0); k < keyRange; k += 2 {
		tr.Insert(k, k)
	}
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
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
				key := rng.Int63n(keyRange)
				if key%2 == 1 {
					if rng.Intn(2) == 0 {
						tr.Insert(key, key)
					} else {
						tr.Delete(key)
					}
				} else {
					tr.Insert(key, key)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20000; i++ {
				key := rng.Int63n(keyRange/2) * 2
				if v, ok := tr.Get(key); !ok || v != key {
					errs <- fmt.Errorf("Get(%d) = (%d,%v) during updates, want (%d,true)", key, v, ok, key)
					return
				}
				probe := rng.Int63n(keyRange)
				if sk, _, ok := tr.Successor(probe); ok && (sk <= probe || sk >= keyRange) {
					errs <- fmt.Errorf("Successor(%d) = %d out of range", probe, sk)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
