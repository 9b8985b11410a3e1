package chromatic

import (
	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/lbst"
)

// The ordered queries of Section 5.5 of the paper - Successor, Predecessor
// and the scans - are implemented once, generically, by the shared
// leaf-oriented BST engine (internal/lbst): an LLX-read BST search followed,
// when the neighbouring leaf must be located, by a VLX over the connecting
// path that validates the two leaves were adjacent in the tree at a single
// point in time; the scans apply the same recipe to a whole subtree, one
// LLX'd in-order walk and one VLX per chunk of up to 64 keys. The chromatic
// tree's node type satisfies lbst.View, so these methods are thin wrappers;
// only the update path (chromatic.go, rebalance.go) stays hand-unrolled,
// exactly as the paper's pseudocode does.
//
// Each wrapper pins the epoch for the duration of the query so that nodes
// reached by the traversal cannot be recycled underneath it. RangeScan and
// Ascend hold a single pin across the whole scan: keeping one pin is cheaper
// than one per chunk, and reclamation only stalls for the scan's duration,
// not forever.

// Successor returns the smallest key strictly greater than key together with
// its value, or ok=false if no such key exists.
func (t *Tree[K, V]) Successor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Successor(t.entry, t.less, key)
	epoch.Unpin(g)
	return k, v, ok
}

// Predecessor returns the largest key strictly smaller than key together
// with its value, or ok=false if no such key exists.
func (t *Tree[K, V]) Predecessor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Predecessor(t.entry, t.less, key)
	epoch.Unpin(g)
	return k, v, ok
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and returns
// the number of keys visited. If fn returns false the scan stops early. Each
// chunk of up to 64 consecutive keys is the range's content at one instant
// (lbst.RangeScan); a scan spanning several chunks is not atomic as a whole.
// Use Snapshot for that.
func (t *Tree[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	g := epoch.Pin()
	n := lbst.RangeScan(t.entry, t.less, lo, hi, fn)
	epoch.Unpin(g)
	return n
}

// Ascend calls fn for every key in the dictionary in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. Like RangeScan it is atomic per chunk of up to 64 keys, not as a
// whole.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) int {
	g := epoch.Pin()
	n := lbst.Ascend(t.entry, t.less, fn)
	epoch.Unpin(g)
	return n
}

// Snapshot captures the tree's current state in O(1) and returns its frozen
// view: scans over the view walk the captured version with plain reads —
// no VLX validation, no retries — and stay unchanged under arbitrary
// concurrent updates until Release. Holding a view parks reclamation of the
// nodes it can reach and disables this tree's in-place overwrite fast path;
// release views promptly. See internal/lbst/snapshot.go and DESIGN.md
// ("Versioned snapshots") for the protocol and its safety argument.
func (t *Tree[K, V]) Snapshot() dict.SnapshotView[K, V] {
	return lbst.CaptureSnap[*node[K, V], node[K, V], K, V](t.entry, t.less, &t.gver, &t.snapLive, &t.fastWriters)
}

// Versions returns the commit ticks of the top-level subtree roots currently
// retained in the tree's bounded root forest, unordered. Observability only.
func (t *Tree[K, V]) Versions() []uint64 {
	var out []uint64
	for i := range t.roots {
		if n := t.roots[i].Load(); n != nil {
			out = append(out, n.snapVer.Load())
		}
	}
	return out
}

// Min returns the smallest key in the dictionary and its value, or ok=false
// if the dictionary is empty.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Min[*node[K, V], node[K, V], K, V](t.entry)
	epoch.Unpin(g)
	return k, v, ok
}

// Max returns the largest key in the dictionary and its value, or ok=false
// if the dictionary is empty. (Sentinel keys are treated as +infinity and
// are never returned.)
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = lbst.Max[*node[K, V], node[K, V], K, V](t.entry)
	epoch.Unpin(g)
	return k, v, ok
}
