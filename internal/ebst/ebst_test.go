package ebst

import (
	"math/rand"
	"sort"
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
	if tr.Size() != 0 {
		t.Fatalf("Size = %d, want 0", tr.Size())
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
	if v, ok := tr.Get(5); !ok || v != 55 {
		t.Fatalf("Get(5) after update = %d,%v", v, ok)
	}
	if old, existed := tr.Delete(5); !existed || old != 55 {
		t.Fatalf("Delete(5) = %d,%v", old, existed)
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("key still present after delete")
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	tr := New()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		key := rng.Int63n(300)
		switch rng.Intn(3) {
		case 0:
			val := rng.Int63()
			old, existed := tr.Insert(key, val)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("Insert(%d) mismatch", key)
			}
			model[key] = val
		case 1:
			old, existed := tr.Delete(key)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("Delete(%d) mismatch", key)
			}
			delete(model, key)
		default:
			v, ok := tr.Get(key)
			mV, mOk := model[key]
			if ok != mOk || (ok && v != mV) {
				t.Fatalf("Get(%d) mismatch", key)
			}
		}
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

func TestPropertyMatchesMapSemantics(t *testing.T) {
	type op struct {
		Key    int8
		Val    int16
		Delete bool
	}
	prop := func(ops []op) bool {
		tr := New()
		model := map[int64]int64{}
		for _, o := range ops {
			k := int64(o.Key)
			if o.Delete {
				old, existed := tr.Delete(k)
				mOld, mExisted := model[k]
				if existed != mExisted || (existed && old != mOld) {
					return false
				}
				delete(model, k)
			} else {
				old, existed := tr.Insert(k, int64(o.Val))
				mOld, mExisted := model[k]
				if existed != mExisted || (existed && old != mOld) {
					return false
				}
				model[k] = int64(o.Val)
			}
		}
		return tr.Size() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress runs the shared-key recorded stress over this package
// alone: eight goroutines of 2 000 operations on sixteen shared keys.
func TestConcurrentStress(t *testing.T) {
	tgt := dicttest.TargetOf[int64, int64]{
		Name:  "EBST",
		New:   func() dict.Map[int64, int64] { return NewOrdered[int64, int64]() },
		Check: func(d dict.Map[int64, int64]) error { return d.(*Tree[int64, int64]).CheckStructure() },
	}
	dicttest.SharedKeyStress(t, tgt, 8, 2000, 16, ident, ident)
}

// ident is the suite's key and value function: the selector itself.
func ident(u uint64) int64 { return int64(u) }

// TestSequentialFillConcurrentChurn fills even keys in ascending order,
// which gives the unbalanced tree a linear spine, as for the paper's
// unbalanced BST: no policy step shortens it. Concurrent updates of the odd
// keys between them then run at that depth, and nothing may be lost or
// duplicated.
func TestSequentialFillConcurrentChurn(t *testing.T) {
	const n = 1024
	tr := New()
	for i := int64(0); i < n; i++ {
		tr.Insert(i*2, i*2) // even keys, sequential: deep spine + gaps to churn
	}
	if h := tr.Height(); h < n {
		t.Fatalf("height %d after a sequential fill of %d keys: want a linear spine", h, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
				k := rng.Int63n(n) * 2
				switch rng.Intn(3) {
				case 0:
					tr.Insert(k+1, k+1) // odd keys come and go
				case 1:
					tr.Delete(k + 1)
				default:
					if v, ok := tr.Get(k); !ok || v != k {
						t.Errorf("Get(%d) = %d,%v during churn", k, v, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := int64(0); i < n; i++ {
		if v, ok := tr.Get(i * 2); !ok || v != i*2 {
			t.Fatalf("even key %d lost or corrupted after churn: %d,%v", i*2, v, ok)
		}
	}
	if err := tr.CheckStructure(); err != nil {
		t.Fatalf("structure check after churn: %v", err)
	}
}
