package lbst

import (
	"testing"

	"repro/internal/llxscx"
	"repro/internal/vcell"
)

// cellAlive reports whether c still holds v. Once the last node aliasing a
// cell has been freed the cell is cleared for its pool: it reads as the zero
// value, or - under -tags reclaimcheck - panics on the load.
func cellAlive(c *vcell.Cell[int64], v int64) (alive bool) {
	defer func() {
		if recover() != nil {
			alive = false
		}
	}()
	return c.Load() == v
}

// leafAndTwoCopies builds a leaf holding v and two copies aliasing its cell,
// none of them published.
func leafAndTwoCopies(t *testing.T, tr *Tree[int64, int64], v int64) [3]*intNode {
	t.Helper()
	l := tr.LeafNode(1, v, 0)
	lk, st := l.LLX()
	if st != llxscx.Snapshot {
		t.Fatalf("LLX of a fresh leaf: %v", st)
	}
	a, b := tr.CopyNode(lk, 0), tr.CopyNode(lk, 0)
	if a.val != l.val || b.val != l.val {
		t.Fatal("a copy does not alias its source's cell")
	}
	return [3]*intNode{l, a, b}
}

// TestCellFreedWithLastAlias frees a leaf and two copies of it in all six
// orders: the shared cell keeps its value until the last of the three is
// freed and returns to its pool exactly then.
func TestCellFreedWithLastAlias(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy{})
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		nodes := leafAndTwoCopies(t, tr, 42)
		cell := nodes[0].val
		for i, which := range order {
			tr.freeNode(nodes[which])
			if alive := cellAlive(cell, 42); alive != (i < 2) {
				t.Fatalf("order %v: after freeing %d of 3 aliasing nodes the cell is alive=%v", order, i+1, alive)
			}
		}
	}
}

// TestReleaseFreshDropsReference: a copy built for an SCX that then failed
// gives its reference back, so the source's free is the last one again.
func TestReleaseFreshDropsReference(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy{})
	nodes := leafAndTwoCopies(t, tr, 42)
	cell := nodes[0].val
	tr.ReleaseFresh(nodes[1])
	tr.ReleaseFresh(nodes[2])
	if !cellAlive(cell, 42) {
		t.Fatal("releasing the unpublished copies freed the source's cell")
	}
	tr.freeNode(nodes[0])
	if cellAlive(cell, 42) {
		t.Fatal("the cell outlived its only remaining holder: a released copy kept its reference")
	}
}

// TestCopyKeepsCellAfterSourceFreed goes through the public operations:
// deleting key 1 promotes a copy of its sibling, the leaf of key 2, and
// retires the original; once the original has been freed the copy must still
// read, and overwrite, the value through the shared cell. (This is the test
// that fails, in every build, if CopyNode forgets its Retain.)
func TestCopyKeepsCellAfterSourceFreed(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy{})
	tr.Insert(1, 10)
	tr.Insert(2, 20)
	tr.Delete(1)
	tr.DrainReclaim()
	tr.DrainReclaim()
	// New leaves draw from the cell pool: a cell freed too early would be
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
	if err := tr.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacedLeafReadableThroughSnapshot: while a snapshot is held an
// overwrite replaces the leaf instead of publishing in place, and the held
// view keeps reading the old leaf, and its cell, through the replacement's
// prev link until it is released.
func TestReplacedLeafReadableThroughSnapshot(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy{})
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
	if err := tr.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
