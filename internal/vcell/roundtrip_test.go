package vcell_test

import (
	"testing"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/lockavl"
	"repro/internal/skiplist"
	"repro/internal/vcell"
)

// celsius is a named word type: Unboxed does not select it, so its cells
// hold a box, while an int64's hold the value word.
type celsius float64

// TestCellRoundTripThroughStructures drives values of both representations
// through every structure that keeps them in cells: a fresh insert, an
// in-place overwrite, a delete whose sibling leaf is copied (in the tree, the
// copy aliases the sibling's cell), and, where the structure has snapshots, a
// snapshot that keeps reading the overwritten value.
func TestCellRoundTripThroughStructures(t *testing.T) {
	if vcell.Unboxed[celsius]() || !vcell.Unboxed[int64]() {
		t.Fatal("celsius must take the boxed representation and int64 the unboxed one")
	}
	t.Run("Chromatic/celsius", func(t *testing.T) { roundTrip(t, chromatic.NewOrdered[int64, celsius](), degrees) })
	t.Run("Chromatic/int64", func(t *testing.T) { roundTrip(t, chromatic.NewOrdered[int64, int64](), words) })
	t.Run("SkipList/celsius", func(t *testing.T) { roundTrip(t, skiplist.NewOrdered[int64, celsius](), degrees) })
	t.Run("SkipList/int64", func(t *testing.T) { roundTrip(t, skiplist.NewOrdered[int64, int64](), words) })
	t.Run("LockAVL/celsius", func(t *testing.T) { roundTrip(t, lockavl.NewOrdered[int64, celsius](), degrees) })
	t.Run("LockAVL/int64", func(t *testing.T) { roundTrip(t, lockavl.NewOrdered[int64, int64](), words) })
}

func degrees(i int64) celsius { return celsius(i)*1.5 - 40 }
func words(i int64) int64     { return -i<<40 | i }

// roundTrip checks each step's result and then every key's value. val(k)
// is key k's first value, val(k+100) its overwrite and val(k+200) the value
// written while a snapshot holds the overwrite.
func roundTrip[V comparable](t *testing.T, m dict.Map[int64, V], val func(int64) V) {
	t.Helper()
	const n = 32
	want := map[int64]V{}
	check := func(step string) {
		t.Helper()
		for k := int64(0); k < n; k++ {
			w, present := want[k]
			if v, ok := m.Get(k); ok != present || v != w {
				t.Fatalf("after %s: Get(%d) = %v, %v; want %v, %v", step, k, v, ok, w, present)
			}
		}
	}
	for k := int64(0); k < n; k++ {
		if old, ok := m.Insert(k, val(k)); ok {
			t.Fatalf("Insert(%d) into an empty slot displaced %v", k, old)
		}
		want[k] = val(k)
	}
	check("insert")
	for k := int64(0); k < n; k += 2 {
		if old, ok := m.Insert(k, val(k+100)); !ok || old != val(k) {
			t.Fatalf("overwrite of %d displaced %v, %v; want %v", k, old, ok, val(k))
		}
		want[k] = val(k + 100)
	}
	check("overwrite")
	if s, ok := m.(dict.Snapshotter[int64, V]); ok {
		view := s.Snapshot()
		held := map[int64]V{}
		for k, v := range want {
			held[k] = v
		}
		for k := int64(0); k < n; k += 4 {
			if old, ok := m.Insert(k, val(k+200)); !ok || old != val(k+100) {
				t.Fatalf("overwrite of %d under a snapshot displaced %v, %v; want %v", k, old, ok, val(k+100))
			}
			want[k] = val(k + 200)
		}
		for k := int64(0); k < n; k++ {
			if v, ok := view.Get(k); !ok || v != held[k] {
				t.Fatalf("snapshot Get(%d) = %v, %v; want %v, true", k, v, ok, held[k])
			}
		}
		view.Release()
		check("overwrite under a snapshot")
	}
	for k := int64(1); k < n; k += 3 {
		if old, ok := m.Delete(k); !ok || old != want[k] {
			t.Fatalf("Delete(%d) = %v, %v; want %v, true", k, old, ok, want[k])
		}
		delete(want, k)
		if old, ok := m.Delete(k); ok {
			t.Fatalf("second Delete(%d) found %v", k, old)
		}
	}
	check("delete")
}
