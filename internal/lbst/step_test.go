package lbst

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/llxscx"
)

// stepFixture is a hand-built, quiescent piece of tree for the Step tests:
//
//	    u(9)
//	   /    \
//	 ux(3)  c(9)
//	 /   \
//	a(1) b(3)
//
// with the LLX evidence of u, ux, a and b. It hangs below no entry node: LLX
// and SCX need none.
type stepFixture struct {
	tr           *Tree[int64, int64]
	u, ux, a, b  *intNode
	lkU, lkUX    llxscx.Linked[intNode]
	lkA, lkB     llxscx.Linked[intNode]
	cellA, cellB int64 // the values the leaves' cells hold
	guard        *epoch.Guard
}

func newStepFixture(t *testing.T) *stepFixture {
	t.Helper()
	tr := NewOrdered[int64, int64](nopPolicy[int64]{})
	f := &stepFixture{tr: tr, cellA: 10, cellB: 30, guard: epoch.Pin()}
	t.Cleanup(f.unpin)
	g := f.guard
	f.a, f.b = tr.LeafNode(g, 1, f.cellA, 0), tr.LeafNode(g, 3, f.cellB, 0)
	f.ux = tr.InternalNode(g, 3, 0, false, f.a, f.b)
	f.u = tr.InternalNode(g, 9, 0, false, f.ux, tr.LeafNode(g, 9, 90, 0))
	f.lkU, f.lkUX, f.lkA, f.lkB = f.llx(t, f.u), f.llx(t, f.ux), f.llx(t, f.a), f.llx(t, f.b)
	return f
}

// unpin releases the fixture's guard, once.
func (f *stepFixture) unpin() {
	if f.guard != nil {
		epoch.Unpin(f.guard)
		f.guard = nil
	}
}

func (f *stepFixture) llx(t *testing.T, n *intNode) llxscx.Linked[intNode] {
	t.Helper()
	lk, st := n.LLX()
	if st != llxscx.Snapshot {
		t.Fatalf("LLX of a quiescent node: %v", st)
	}
	return lk
}

func (f *stepFixture) step() Step[int64, int64] {
	return Step[int64, int64]{Tree: f.tr, Guard: f.guard}
}

// recorded returns the nodes of V and of R as the step holds them.
func recorded(s *Step[int64, int64]) (v, r []*intNode) {
	for i := 0; i < s.nv; i++ {
		v = append(v, s.v[i].Node())
	}
	return v, append(r, s.fin[:s.nf]...)
}

func sameNodes(got, want []*intNode) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// freed reports whether n has been through freeNode, which clears it.
func freed(n *intNode) bool {
	return n.K == 0 && n.left.Load() == nil && n.right.Load() == nil && n.val == nil
}

// TestStepOrdersSiblingPairLeftFirst: whichever side a step runs on, the two
// children it removes enter V and R with the left one first (PC8) - this is
// the one function that orders a sibling pair, for every rebalancing step and
// its mirror image - and R is the removed subset of V, in V's order (PC2).
func TestStepOrdersSiblingPairLeftFirst(t *testing.T) {
	f := newStepFixture(t)
	for d := 0; d <= 1; d++ {
		near, far := f.lkA, f.lkB
		if d == 1 {
			near, far = f.lkB, f.lkA
		}
		s := f.step()
		s.Keep(f.lkU)
		s.Remove(f.lkUX)
		s.RemovePair(d, near, far)
		v, r := recorded(&s)
		if !sameNodes(v, []*intNode{f.u, f.ux, f.a, f.b}) || !sameNodes(r, []*intNode{f.ux, f.a, f.b}) {
			t.Errorf("side %d: V = %v and R = %v; want u, ux, a, b and ux, a, b", d, v, r)
		}
	}
	s := f.step()
	s.Keep(f.lkU)
	s.Remove(f.lkUX)
	s.Keep(f.lkA)
	s.Remove(f.lkB)
	v, r := recorded(&s)
	if !sameNodes(v, []*intNode{f.u, f.ux, f.a, f.b}) || !sameNodes(r, []*intNode{f.ux, f.b}) {
		t.Errorf("kept and removed nodes interleaved: V = %v and R = %v; want u, ux, a, b and ux, b", v, r)
	}
}

// TestStepInternalPlacesNearChildOnItsSide: the near child goes on side d.
func TestStepInternalPlacesNearChildOnItsSide(t *testing.T) {
	f := newStepFixture(t)
	s := f.step()
	if n := s.Internal(f.ux, 4, 0, f.a, f.b); n.Left() != f.a || n.Right() != f.b || n.K != f.ux.K || n.Deco() != 4 {
		t.Errorf("side 0: children (%p, %p), key %d, decoration %d; want (a, b), ux's key, 4", n.Left(), n.Right(), n.K, n.Deco())
	}
	if n := s.Internal(f.ux, 4, 1, f.b, f.a); n.Left() != f.a || n.Right() != f.b {
		t.Errorf("side 1: near child b and far child a placed as (%p, %p); want (a, b)", n.Left(), n.Right())
	}
}

// TestStepFailedCommitReturnsFreshNodes: a Commit whose SCX cannot succeed,
// because u's field changed after the LLX or because old was not a child of u
// in the snapshot at all, changes nothing and gives back every node the step
// built, once: each comes back cleared and comes off the slot's free list
// once, and each copy of a leaf has dropped the reference it took on the
// leaf's value cell, so the leaf's own free is the last one again (the
// pattern of TestReleaseFreshDropsReference).
func TestStepFailedCommitReturnsFreshNodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale func(t *testing.T, f *stepFixture) (old *intNode)
	}{
		{"u's field changed after the LLX", func(t *testing.T, f *stepFixture) *intNode {
			// Another update replaces ux by a copy of itself first.
			s := f.step()
			lkU, lkUX := f.llx(t, f.u), f.llx(t, f.ux)
			s.Keep(lkU)
			s.Remove(lkUX)
			if !s.Commit(lkU, f.ux, s.Copy(lkUX, 0)) {
				t.Fatal("the interfering update did not commit")
			}
			return f.ux
		}},
		{"old is not a child of u in the snapshot", func(t *testing.T, f *stepFixture) *intNode { return f.b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newStepFixture(t)
			s := f.step()
			s.Keep(f.lkU)
			s.Remove(f.lkUX)
			s.RemovePair(0, f.lkA, f.lkB)
			copyA, copyB := s.Copy(f.lkA, 0), s.Copy(f.lkB, 0)
			root := s.Internal(f.ux, 0, 0, copyA, copyB)
			if copyA.val != f.a.val || copyB.val != f.b.val {
				t.Fatal("a copy does not alias its source's cell")
			}
			cellA, cellB := f.a.val, f.b.val
			old := tc.stale(t, f)
			before := f.u.Left()
			if s.Commit(f.lkU, old, root) {
				t.Fatal("Commit succeeded on stale evidence")
			}
			if f.u.Left() != before {
				t.Fatal("a failed Commit changed u's field")
			}
			for name, n := range map[string]*intNode{"the copy of a": copyA, "the copy of b": copyB, "the fresh internal node": root} {
				if !freed(n) {
					t.Errorf("%s was not returned to the free list", name)
				}
			}
			if s.nfresh != 0 {
				t.Errorf("the step still holds %d fresh nodes after giving them back", s.nfresh)
			}
			if !cellAlive(cellA, f.cellA) || !cellAlive(cellB, f.cellB) {
				t.Fatal("returning the copies freed a cell its leaf still holds")
			}
			// A node put on the slot's free list twice comes off it twice.
			drawn := map[*intNode]bool{}
			for i := 0; i < 8; i++ {
				n := f.tr.newNode(f.guard, 0, 0)
				if drawn[n] {
					t.Fatal("the free list hands out one node twice: a fresh node was returned to it twice")
				}
				drawn[n] = true
			}
			f.tr.freeNode(f.guard, f.a)
			f.tr.freeNode(f.guard, f.b)
			if cellAlive(cellA, f.cellA) || cellAlive(cellB, f.cellB) {
				t.Fatal("a cell outlived its leaf: a returned copy kept its reference")
			}
		})
	}
}

// TestStepCommitRetiresExactlyR: a successful Commit swings u's field to the
// new subtree and retires the nodes recorded as removed, which are freed after
// the grace period, and nothing else: u, the kept node, and the new nodes are
// untouched, and the leaves' cells live on through the copies.
func TestStepCommitRetiresExactlyR(t *testing.T) {
	f := newStepFixture(t)
	s := f.step()
	s.Keep(f.lkU)
	s.Remove(f.lkUX)
	s.RemovePair(1, f.lkB, f.lkA)
	copyA, copyB := s.Copy(f.lkA, 0), s.Copy(f.lkB, 0)
	root := s.Internal(f.ux, 0, 1, copyB, copyA)
	if !s.Commit(f.lkU, f.ux, root) {
		t.Fatal("Commit failed on a quiescent tree")
	}
	if f.u.Left() != root {
		t.Fatal("u's field does not hold the new subtree")
	}
	f.unpin() // a pinned guard holds the grace period open
	f.tr.DrainReclaim()
	f.tr.DrainReclaim()
	for name, n := range map[string]*intNode{"ux": f.ux, "a": f.a, "b": f.b} {
		if !freed(n) {
			t.Errorf("%s was removed but has not been freed after the grace period", name)
		}
	}
	if freed(f.u) || freed(root) || freed(copyA) || freed(copyB) {
		t.Fatal("a node that is still in the tree was freed")
	}
	if root.Left() != copyA || root.Right() != copyB || copyA.val.Load() != f.cellA || copyB.val.Load() != f.cellB {
		t.Fatal("the new subtree does not read as the copies of a and b with their values")
	}
}

// TestStepPanicsRatherThanOverruns: a V sequence longer than a descriptor
// holds, or more fresh nodes than the step remembers, is a bug in the step
// being assembled and panics at the call that goes too far.
func TestStepPanicsRatherThanOverruns(t *testing.T) {
	f := newStepFixture(t)
	panics := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	s := f.step()
	for i := 0; i < llxscx.MaxV; i++ {
		s.Keep(f.lkU)
	}
	if !panics(func() { s.Keep(f.lkU) }) {
		t.Errorf("recording %d nodes in V did not panic", llxscx.MaxV+1)
	}
	s = f.step()
	for i := 0; i < len(s.fresh); i++ {
		s.Internal(f.ux, 0, 0, nil, nil)
	}
	if !panics(func() { s.Internal(f.ux, 0, 0, nil, nil) }) {
		t.Errorf("building %d fresh nodes did not panic", len(s.fresh)+1)
	}
}
