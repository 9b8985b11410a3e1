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
	fld := lbst.FieldOf(lkU, s1)
	if fld == nil {
		return nil, nil, false
	}

	// Walk the segment through LLX evidence, accumulating the in-order
	// sequence of hanging subtrees and separator keys: a left turn at s means
	// s's key and right child follow the expansion (collected in suffix, to
	// be reversed), a right turn means s's left child and key precede it.
	var v [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]
	var fin [llxscx.MaxV]*lbst.Node[K, V]
	v[0] = lkU
	var subs [segLen + 1]*lbst.Node[K, V]
	var keys [segLen]K
	var sufSubs [segLen]*lbst.Node[K, V]
	var sufKeys [segLen]K
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
		v[i+1] = lk
		fin[i] = s
		if less(key, s.K) {
			sufKeys[nSuf] = s.K
			sufSubs[nSuf] = lk.Child(1)
			nSuf++
			s = lk.Child(0)
		} else {
			subs[nPre] = lk.Child(0)
			keys[nPre] = s.K
			nPre++
			s = lk.Child(1)
		}
		if s == nil {
			return nil, nil, false
		}
	}
	// s is now the tail: the path's continuation below the segment. Assemble
	// the full in-order sequence subs[0] keys[0] ... keys[3] subs[4].
	tail = s
	subs[nPre] = s
	for i := nSuf - 1; i >= 0; i-- {
		keys[nPre] = sufKeys[i]
		nPre++
		subs[nPre] = sufSubs[i]
	}

	// Build the balanced replacement block from the pool. The hanging
	// subtrees are reused as children of fresh nodes (allowed, as in the
	// insertion template); only the four spine nodes are finalized and
	// retired, and their keys reappear solely in fresh internal nodes (PC9).
	var fresh [segLen]*lbst.Node[K, V]
	nFresh := 0
	var build func(sl, sr, kl, kr int) *lbst.Node[K, V]
	build = func(sl, sr, kl, kr int) *lbst.Node[K, V] {
		if sl == sr {
			return subs[sl]
		}
		mid := kl + (kr-kl)/2
		left := build(sl, sl+(mid-kl), kl, mid)
		right := build(sl+(mid-kl)+1, sr, mid+1, kr)
		n := t.InternalNode(keys[mid], 0, false, left, right)
		fresh[nFresh] = n
		nFresh++
		return n
	}
	block = build(0, segLen, 0, segLen)
	if !t.RebalanceSCX(g, &v, segLen+1, &fin, segLen, fld, s1, block) {
		for i := 0; i < nFresh; i++ {
			t.ReleaseFresh(fresh[i])
		}
		return nil, nil, false
	}
	return block, tail, true
}
