package repro

import (
	"math"
	"testing"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/lockavl"
	"repro/internal/ravl"
	"repro/internal/seqrbt"
	"repro/internal/skiplist"
	"repro/internal/stmrbt"
	"repro/internal/stmskip"
)

// nanMap is what TestNaNKeyOrderedFirst needs of a float64-keyed structure.
type nanMap interface {
	dict.OrderedMap[float64, int]
	Size() int
}

// TestNaNKeyOrderedFirst checks every structure's float64 instantiation
// against cmp.Less's treatment of NaN: a NaN key is one key, equal only to
// itself, and sorts before every other key. The randomized conformance model
// cannot hold NaN (a Go map never finds a NaN key), so this is its own test.
func TestNaNKeyOrderedFirst(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		new   func() nanMap
		check func(nanMap) error
	}{
		{"Chromatic", func() nanMap { return chromatic.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*chromatic.Tree[float64, int]).CheckInvariants() }},
		{"Chromatic6", func() nanMap {
			return chromatic.NewOrdered[float64, int](chromatic.WithAllowedViolations(6))
		}, func(m nanMap) error { return m.(*chromatic.Tree[float64, int]).CheckInvariants() }},
		{"RAVL", func() nanMap { return ravl.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*ravl.Tree[float64, int]).CheckStructure() }},
		{"EBST", func() nanMap { return ebst.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*ebst.Tree[float64, int]).CheckStructure() }},
		{"SkipList", func() nanMap { return skiplist.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*skiplist.List[float64, int]).CheckInvariants() }},
		{"LockAVL", func() nanMap { return lockavl.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*lockavl.Tree[float64, int]).CheckInvariants() }},
		{"RBSTM", func() nanMap { return stmrbt.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*stmrbt.Tree[float64, int]).CheckInvariants() }},
		{"SkipListSTM", func() nanMap { return stmskip.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*stmskip.List[float64, int]).CheckInvariants() }},
		{"SeqRBT", func() nanMap { return seqrbt.NewOrdered[float64, int]() },
			func(m nanMap) error { return m.(*seqrbt.Tree[float64, int]).CheckInvariants() }},
		{"RBGlobal", func() nanMap { return seqrbt.NewGlobalOrdered[float64, int]() },
			func(m nanMap) error { return m.(*seqrbt.Global[float64, int]).CheckInvariants() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.new()
			for i := range 8 {
				m.Insert(float64(i), i)
			}
			if _, existed := m.Insert(nan, 100); existed {
				t.Fatal("first Insert(NaN) reported the key present")
			}
			if err := tc.check(m); err != nil {
				t.Fatalf("after Insert(NaN): %v", err)
			}
			if v, ok := m.Get(nan); !ok || v != 100 {
				t.Fatalf("Get(NaN) = (%d, %v), want (100, true)", v, ok)
			}
			if old, existed := m.Insert(nan, 101); !existed || old != 100 {
				t.Fatalf("second Insert(NaN) = (%d, %v), want (100, true)", old, existed)
			}
			if n := m.Size(); n != 9 {
				t.Fatalf("Size = %d after inserting NaN twice, want 9", n)
			}
			if k, v, ok := m.Successor(nan); !ok || k != 0 || v != 0 {
				t.Fatalf("Successor(NaN) = (%v, %d, %v), want (0, 0, true)", k, v, ok)
			}
			if old, existed := m.Delete(nan); !existed || old != 101 {
				t.Fatalf("Delete(NaN) = (%d, %v), want (101, true)", old, existed)
			}
			if _, ok := m.Get(nan); ok {
				t.Fatal("Get(NaN) found the key after Delete(NaN)")
			}
			if err := tc.check(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}
