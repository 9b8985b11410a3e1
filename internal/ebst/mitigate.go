package ebst

import (
	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/llxscx"
)

// Degenerate-spine mitigation. The unbalanced tree never rebalances, so a
// pathological (for example sequential) insertion order builds a linear
// spine; the engine's SpineStats diagnostic detects it when a probe walks at
// least the spine cap. Rather than leaving the caller to rebuild the tree,
// the policy implements lbst.SpineMitigator: when a probe reports a deep
// walk, one throttled pass re-walks the key's path and compresses it segment
// by segment, each compression a single ordinary template update (LLX the
// segment's parent and four consecutive internal nodes, then one SCX that
// replaces the four-node path segment with a balanced block over the same
// five hanging subtrees and the same four routing keys). In-order contents
// and search correctness are untouched — the block is a permutation of the
// segment's shape — and concurrent operations see each compression as one
// atomic localized update, exactly like any rebalancing step. A pass walks
// the path once, so each deep probe shortens the spine by roughly a quarter;
// repeated probes converge the path toward balance without ever blocking.

const (
	// segLen is the number of consecutive internal nodes compressed per SCX.
	// With the segment's parent it fills five of the six LLX evidence slots.
	segLen = 4
	// maxCompressions bounds the SCXs of one mitigation pass, so a single
	// deep probe never turns into an unbounded stall for its caller.
	maxCompressions = 64
)

// MitigateSpine implements lbst.SpineMitigator: one bounded compression pass
// along key's search path. It pins its own guard (the engine may invoke it
// from inside a pinned operation; nested pins claim separate slots).
func (policy[K, V]) MitigateSpine(t *lbst.Tree[K, V], key K) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	less := t.Less()
	goesLeft := func(n *lbst.Node[K, V], k K) bool { return n.IsSentinel() || less(k, n.K) }
	u := t.Entry()
	n := u.Left()
	for scxs := 0; n != nil && !n.IsLeaf() && scxs < maxCompressions; {
		if block, tail, ok := compressSegment(g, t, key, u, n); ok {
			scxs++
			// Resume BELOW the freshly built block, never inside it:
			// re-compressing a just-balanced block would keep succeeding
			// while pushing its hanging subtrees one level deeper per SCX,
			// turning mitigation into a height amplifier. Walk the block's
			// short through-path down to the segment's tail instead.
			u = block
			for {
				var next *lbst.Node[K, V]
				if goesLeft(u, key) {
					next = u.Left()
				} else {
					next = u.Right()
				}
				if next == tail || next == nil {
					break
				}
				u = next
			}
			n = tail
			continue
		}
		u = n
		if goesLeft(n, key) {
			n = n.Left()
		} else {
			n = n.Right()
		}
	}
}

// compressSegment attempts one compression of the path segment starting at
// s1 (a child of u) along key's search path. On success it returns the
// replacement block's root and the segment's tail (the path's continuation
// below the compressed segment, now hanging inside the block); ok=false
// means the segment was too short (a leaf or sentinel within reach) or a
// concurrent update invalidated the evidence, in which case the caller
// simply steps one node down.
func compressSegment[K, V any](g *epoch.Guard, t *lbst.Tree[K, V], key K, u, s1 *lbst.Node[K, V]) (block, tail *lbst.Node[K, V], ok bool) {
	if s1.IsLeaf() || s1.IsSentinel() {
		return nil, nil, false
	}
	less := t.Less()
	lkU, st := u.LLX()
	if st != llxscx.Snapshot {
		return nil, nil, false
	}
	if lbst.FieldOf(lkU, s1) == nil {
		return nil, nil, false
	}

	// Walk the segment through LLX evidence, accumulating the in-order
	// sequence of hanging subtrees and separators (the segment's nodes, for
	// their keys): a left turn at s means s and its right child follow the
	// expansion (collected in suffix, to be reversed), a right turn means s's
	// left child and s precede it.
	step := lbst.Step[K, V]{Tree: t, Guard: g}
	step.Keep(lkU)
	var subs [segLen + 1]*lbst.Node[K, V]
	var seps [segLen]*lbst.Node[K, V]
	var sufSubs [segLen]*lbst.Node[K, V]
	var sufSeps [segLen]*lbst.Node[K, V]
	nPre, nSuf := 0, 0
	s := s1
	for i := 0; i < segLen; i++ {
		if s.IsLeaf() || s.IsSentinel() {
			return nil, nil, false
		}
		lk, st := s.LLX()
		if st != llxscx.Snapshot {
			return nil, nil, false
		}
		step.Remove(lk)
		if less(key, s.K) {
			sufSeps[nSuf] = s
			sufSubs[nSuf] = lk.Child(1)
			nSuf++
			s = lk.Child(0)
		} else {
			subs[nPre] = lk.Child(0)
			seps[nPre] = s
			nPre++
			s = lk.Child(1)
		}
		if s == nil {
			return nil, nil, false
		}
	}
	// s is now the tail: the path's continuation below the segment. Assemble
	// the full in-order sequence subs[0] seps[0] ... seps[3] subs[4].
	tail = s
	subs[nPre] = s
	for i := nSuf - 1; i >= 0; i-- {
		seps[nPre] = sufSeps[i]
		nPre++
		subs[nPre] = sufSubs[i]
	}

	// Build the balanced replacement block from the pool. The hanging
	// subtrees are reused as children of fresh nodes (allowed, as in the
	// insertion template); only the four spine nodes are finalized and
	// retired, and their keys reappear solely in fresh internal nodes (PC9).
	var build func(sl, sr, kl, kr int) *lbst.Node[K, V]
	build = func(sl, sr, kl, kr int) *lbst.Node[K, V] {
		if sl == sr {
			return subs[sl]
		}
		mid := kl + (kr-kl)/2
		left := build(sl, sl+(mid-kl), kl, mid)
		right := build(sl+(mid-kl)+1, sr, mid+1, kr)
		return step.Internal(seps[mid], 0, 0, left, right)
	}
	block = build(0, segLen, 0, segLen)
	if !step.Commit(lkU, s1, block) {
		return nil, nil, false
	}
	return block, tail, true
}
