package chromatic

import (
	"testing"
)

// The value-cell lifetime protocol is the engine's and is tested there
// (internal/lbst/cell_test.go). The two tests below go through the public
// operations only and end on CheckInvariants, so what they add is the
// chromatic policy's part: the promoted sibling and the replacement leaf must
// come out with the right weights while they alias, or replace, a cell.

// TestCopyKeepsCellAfterSourceFreed goes through the public operations:
// deleting key 1 promotes a copy of its sibling, the leaf of key 2, and
// retires the original; once the original has been freed the copy must still
// read, and overwrite, the value through the shared cell.
func TestCopyKeepsCellAfterSourceFreed(t *testing.T) {
	tr := New()
	tr.Insert(1, 10)
	tr.Insert(2, 20)
	tr.Delete(1)
	tr.DrainReclaim()
	tr.DrainReclaim()
	// New leaves draw from the free lists: a cell freed too early would be
	// handed to one of them.
	for k := int64(100); k < 164; k++ {
		tr.Insert(k, k)
	}
	if v, ok := tr.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d, %v after its leaf's source was freed; want 20, true", v, ok)
	}
	if old, ok := tr.Insert(2, 21); !ok || old != 20 {
		t.Fatalf("Insert(2) displaced %d, %v; want 20, true", old, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacedLeafReadableThroughSnapshot: while a snapshot is held an
// overwrite replaces the leaf instead of publishing in place, and the held
// view keeps reading the old leaf, and its cell, through the replacement's
// prev link until it is released. The replacement carries the old leaf's
// weight.
func TestReplacedLeafReadableThroughSnapshot(t *testing.T) {
	tr := New()
	tr.Insert(1, 10)
	tr.Insert(2, 20)
	snap := tr.Snapshot()
	if old, ok := tr.Insert(1, 11); !ok || old != 10 {
		t.Fatalf("Insert(1) displaced %d, %v; want 10, true", old, ok)
	}
	// Churn so that anything freed too early is reused and overwritten.
	for round := 0; round < 4; round++ {
		for k := int64(100); k < 164; k++ {
			tr.Insert(k, k)
		}
		for k := int64(100); k < 164; k++ {
			tr.Delete(k)
		}
		tr.DrainReclaim()
	}
	if v, ok := snap.Get(1); !ok || v != 10 {
		t.Fatalf("held snapshot reads key 1 as %d, %v; want 10, true", v, ok)
	}
	if v, ok := tr.Get(1); !ok || v != 11 {
		t.Fatalf("live tree reads key 1 as %d, %v; want 11, true", v, ok)
	}
	snap.Release()
	tr.DrainReclaim()
	tr.DrainReclaim()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
