package chromatic

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/lbst"
)

// TestPackedWeightRoundTrip: a weight is the node's decoration, which the
// engine packs into 30 bits beside the leaf and sentinel flags. Every weight
// the steps can produce lies in [0, lbst.MaxDeco] - replacementWeight clamps
// the one subtraction that can go below zero and pins the root at one - and
// comes back from a node with either flag set or clear; a weight that would
// not fit is refused when the node is built, never truncated into a small
// valid one.
func TestPackedWeightRoundTrip(t *testing.T) {
	tr := New()
	pol := tr.pol
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for _, w := range []int64{0, 1, 2, 7, lbst.MaxDeco - 1, lbst.MaxDeco} {
		for _, inf := range []bool{false, true} {
			n := tr.InternalNode(g, 1, w, inf, nil, nil)
			if n.Deco() != w || n.IsLeaf() || n.IsSentinel() != inf {
				t.Fatalf("internal node of weight %d, sentinel %v reads back as (%d, leaf %v, sentinel %v)", w, inf, n.Deco(), n.IsLeaf(), n.IsSentinel())
			}
			like := pol.internalLike(g, n, w, nil, nil)
			if like.Deco() != w || like.IsLeaf() || like.IsSentinel() != inf {
				t.Fatalf("internalLike of weight %d, sentinel %v reads back as (%d, leaf %v, sentinel %v)", w, inf, like.Deco(), like.IsLeaf(), like.IsSentinel())
			}
		}
		l := tr.LeafNode(g, 1, 10, w)
		if l.Deco() != w || !l.IsLeaf() || l.IsSentinel() {
			t.Fatalf("leaf of weight %d reads back as (%d, leaf %v, sentinel %v)", w, l.Deco(), l.IsLeaf(), l.IsSentinel())
		}
	}
	plain, sentinel := tr.InternalNode(g, 1, 1, false, nil, nil), tr.InternalNode(g, 1, 1, true, nil, nil)
	for _, tc := range []struct {
		u       *lbst.Node[int64, int64]
		w, want int64
	}{
		{plain, -1, 0}, {plain, 0, 0}, {plain, 5, 5}, {plain, lbst.MaxDeco, lbst.MaxDeco},
		{sentinel, -1, 1}, {sentinel, 0, 1}, {sentinel, 5, 1},
	} {
		if got := replacementWeight(tc.u, tc.w); got != tc.want {
			t.Errorf("replacementWeight(sentinel %v, %d) = %d, want %d", tc.u.IsSentinel(), tc.w, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a node of weight lbst.MaxDeco+1 was built")
		}
	}()
	tr.InternalNode(g, 1, lbst.MaxDeco+1, false, nil, nil)
}
