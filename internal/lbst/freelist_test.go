package lbst

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/epoch"
	"repro/internal/sched"
)

// pinSlot pins guards until one lands on slot, and releases the others.
func pinSlot(t *testing.T, slot int) *epoch.Guard {
	t.Helper()
	var others []*epoch.Guard
	defer func() {
		for _, g := range others {
			epoch.Unpin(g)
		}
	}()
	for range epoch.NumSlots {
		g := epoch.Pin()
		if g.Slot() == slot {
			return g
		}
		others = append(others, g)
	}
	t.Fatalf("slot %d cannot be pinned", slot)
	return nil
}

// TestFreeListReuseWaitsForGracePeriod deletes a key under one guard while a
// reader pinned before the delete stays pinned: the three nodes the delete
// removes, and the deleted leaf's cell, must not reach the free list of the
// deleting slot - the only place newNode and LeafNode draw from - until the
// reader unpins, and then they come back out of it. With the grace period cut
// to one epoch (the PrematureFree mutation) they reach it while the reader is
// still pinned, which is what the first half of the check catches.
func TestFreeListReuseWaitsForGracePeriod(t *testing.T) {
	scenario := func(t *testing.T) (early bool) {
		tr := NewOrdered[int64, int64](nopPolicy[int64]{})
		for _, k := range []int64{2, 1, 3} {
			tr.Insert(k, 10*k)
		}
		epoch.Drain()
		reader := epoch.Pin()
		g := epoch.Pin()
		slot := g.Slot()
		gp, p, l := tr.search(1)
		s := p.Left()
		if s == l {
			s = p.Right()
		}
		removed := []*intNode{p, l, s}
		cell := l.val
		if _, ok := tr.tryDelete(g, 1, gp, p, l); !ok {
			t.Fatal("the delete failed on a quiescent tree")
		}
		epoch.Unpin(g)
		onList := func() bool {
			f := &tr.free[slot]
			for _, n := range removed {
				if slices.Contains(f.nodes, n) {
					return true
				}
			}
			return slices.Contains(f.cells, cell)
		}
		epoch.Drain()
		early = onList()
		epoch.Unpin(reader)
		epoch.Drain()

		g = pinSlot(t, slot)
		defer epoch.Unpin(g)
		f := &tr.free[slot]
		var nodes []*intNode
		for range len(f.nodes) {
			nodes = append(nodes, tr.newNode(g, 0, 0))
		}
		for _, n := range removed {
			if !slices.Contains(nodes, n) {
				t.Errorf("a removed node did not come back out of newNode after its grace period")
			}
		}
		var cells []*intNode
		for range len(f.cells) {
			cells = append(cells, tr.LeafNode(g, 9, 90, 0))
		}
		if !slices.ContainsFunc(cells, func(n *intNode) bool { return n.val == cell }) {
			t.Errorf("the deleted leaf's cell did not come back out of LeafNode after its grace period")
		}
		return early
	}
	t.Run("grace-period", func(t *testing.T) {
		if scenario(t) {
			t.Fatal("a removed node or cell reached the free list while a reader pinned before its removal was still pinned")
		}
	})
	t.Run("PrematureFree", func(t *testing.T) {
		sched.SetMutation(sched.PrematureFree, true)
		defer sched.SetMutation(sched.PrematureFree, false)
		if !scenario(t) {
			t.Fatal("with a one-epoch grace period nothing reached the free list early: the check has no teeth")
		}
	})
}

// TestFreeListCapBoundsBurst deletes three caps' worth of keys from one
// goroutine, whose slot frees about three nodes and one cell per delete and
// builds one node, and drains: the slot's lists stop at freeCap, and no
// slot's list is longer.
func TestFreeListCapBoundsBurst(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy[int64]{})
	const keys = 3 * freeCap
	key := func(i int64) int64 { return i * 1181 % keys } // a permutation: 1181 is prime to keys
	for i := range int64(keys) {
		tr.Insert(key(i), i)
	}
	for i := range int64(keys) {
		tr.Delete(key(i))
	}
	tr.DrainReclaim()
	longest := 0
	for i := range tr.free {
		f := &tr.free[i]
		if len(f.nodes) > freeCap || len(f.cells) > freeCap {
			t.Errorf("slot %d keeps %d nodes and %d cells, over the cap of %d", i, len(f.nodes), len(f.cells), freeCap)
		}
		longest = max(longest, len(f.nodes), len(f.cells))
	}
	if longest != freeCap {
		t.Errorf("the longest list holds %d, want the cap %d: the burst did not reach it", longest, freeCap)
	}
}

// TestFreeListDroppedTreeCollected: a tree that has freed nodes and cells
// onto its lists is garbage once it is dropped and the epoch layer lets go of
// what it retired - its lists are its own, registered with nothing in the
// runtime.
func TestFreeListDroppedTreeCollected(t *testing.T) {
	wp := func() weak.Pointer[Tree[int64, int64]] {
		tr := NewOrdered[int64, int64](nopPolicy[int64]{})
		for i := range int64(600) {
			tr.Insert(i*7%600, i)
		}
		for i := range int64(300) {
			tr.Delete(i)
		}
		tr.DrainReclaim()
		return weak.Make(tr)
	}()
	epoch.Drain()
	epoch.DiscardAll()
	for range 4 {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a dropped tree is still reachable after Drain, DiscardAll and collection")
	}
}
