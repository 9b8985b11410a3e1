package chromatic

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/epoch"
	"repro/internal/lbst"
)

// internalLike builds a fresh internal node like src the way every step does,
// through lbst.Step.Internal under the pinned guard g, under the name
// TestPackedWeightRoundTrip has called it by since the steps had a helper of
// their own for it.
func (pol *policy[K, V]) internalLike(g *epoch.Guard, src *lbst.Node[K, V], w int64, left, right *lbst.Node[K, V]) *lbst.Node[K, V] {
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	return s.Internal(src, w, 0, left, right)
}

// DebugPath returns a human-readable description of the nodes on the search
// path for key, including each node's weight, leaf flag and whether it has
// been finalized. It is intended for debugging and test failure reports; it
// uses plain reads and is not linearizable.
func (t *Tree[K, V]) DebugPath(key K) string {
	var b strings.Builder
	n := t.Entry()
	depth := 0
	for n != nil {
		k := "inf"
		if !n.IsSentinel() {
			k = fmt.Sprintf("%v", n.K)
		}
		fmt.Fprintf(&b, "depth=%d key=%s w=%d leaf=%v finalized=%v\n", depth, k, n.Deco(), n.IsLeaf(), n.Marked())
		if n.IsLeaf() {
			break
		}
		if n.IsSentinel() || cmp.Less(key, n.K) {
			n = n.Left()
		} else {
			n = n.Right()
		}
		depth++
	}
	return b.String()
}
