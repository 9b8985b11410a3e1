package chromatic

import "repro/internal/lbst"

// internalLike builds a fresh internal node like src the way every step does,
// through lbst.Step.Internal, under the name TestPackedWeightRoundTrip has
// called it by since the steps had a helper of their own for it.
func (pol *policy[K, V]) internalLike(src *lbst.Node[K, V], w int64, left, right *lbst.Node[K, V]) *lbst.Node[K, V] {
	s := lbst.Step[K, V]{Tree: pol.eng}
	return s.Internal(src, w, 0, left, right)
}
