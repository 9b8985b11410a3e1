package lbst

import (
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/sched"
)

// This file implements O(1) versioned snapshots for the engine's trees:
// Snapshot captures a frozen point-in-time view in constant time, and scans over the view walk
// plain pointers with zero VLX validation, zero retries and zero per-node
// CASes. The full safety argument lives in DESIGN.md ("Versioned
// snapshots"); the mechanism in brief:
//
//   - every committed SCX stamps the subtree root it installs with the
//     current value of the tree's version clock gver, which it only reads,
//     and records the displaced value of the field in the new node's prev
//     link. Both happen in the tree's OnCommit hook (llxscx.Pool), BEFORE the
//     update CAS, so a node readable out of a mutable field is always
//     already stamped — which makes ticks monotone along structural
//     dependencies and a captured version a consistent cut of the update
//     history. Updates between two captures share a tick;
//   - capture advances the clock: a snapshot is the pair (entry, ver = the
//     value it advanced gver from), and it then waits out the publish
//     windows open on the epoch slots, inside which updates read the clock
//     and install, so a node stamped at or below ver is in the tree before
//     the view is first read. A walk resolves
//     every child pointer it loads: a node stamped after ver is rewound
//     through its prev chain to the version the snapshot captured. Fresh
//     interior nodes of an update are never stamped (only the CASed-in root
//     is); they carry no prev link and are accepted as-is, which is sound
//     because they are reachable only through their update's accepted root;
//   - values stay frozen because Insert's in-place overwrite fast path is
//     disabled while any snapshot is live (the overwrite becomes a
//     leaf-replacement SCX, which the resolution walk rewinds like any other
//     update), and the same drain waits out the fast-path publishes that
//     did not see the snapshot registered;
//   - memory stays valid because capture registers a long-lived epoch pin
//     (epoch.SnapPin) before advancing gver: every node the snapshot can reach
//     that is later retired was retired after the pin registered, so its
//     grace period parks it behind the pin instead of recycling it.

// resolve rewinds a just-loaded child pointer to the version a snapshot
// captured: nodes stamped after ver are stepped back through their prev
// chain. A node without a prev link is accepted as-is — it is either ancient
// (tick 0), or a fresh unstamped interior of an update whose root the walk
// already accepted. The epoch pin held by the snapshot guarantees every node
// on the chain is still valid memory (see the capture argument in DESIGN.md).
func resolve[K, V any](c *Node[K, V], ver uint64) *Node[K, V] {
	for c != nil {
		if c.ver() <= ver {
			return c
		}
		p := c.prev.Load()
		if p == nil {
			return c
		}
		c = p
	}
	return nil
}

// Snap is a frozen point-in-time view of a versioned tree. It implements
// dict.SnapshotView and dict.Differ. The zero value is not meaningful; views
// are produced by the trees' Snapshot methods.
type Snap[K, V any] struct {
	entry *Node[K, V]
	less  func(K, K) bool
	ver   uint64
	// pin is the long-lived epoch registration keeping reachable retired
	// nodes parked.
	pin *epoch.SnapGuard
	// live points at the owning tree's live-snapshot counter, decremented on
	// Release to re-enable the in-place overwrite fast path.
	live     *atomic.Int64
	released atomic.Bool
}

// Version returns the capture's version: the value it advanced the tree's
// clock from. The view holds exactly the updates stamped at or below it, and
// a later capture of the same tree has a greater one.
func (s *Snap[K, V]) Version() uint64 { return s.ver }

// Consistent reports whether the view is frozen: always, for a tree's own
// snapshot (dict's scan-backed adapter is the view that is not).
func (s *Snap[K, V]) Consistent() bool { return true }

// Release ends the view's lifetime: it re-enables the source tree's in-place
// overwrite fast path and unpins the epoch layer, letting parked retirees
// recycle. Idempotent.
func (s *Snap[K, V]) Release() {
	if s.released.Swap(true) {
		return
	}
	s.live.Add(-1)
	s.pin.Release()
}

// Get returns the value associated with key in the snapshot. Plain reads
// plus resolution only: no validation, no retries.
func (s *Snap[K, V]) Get(key K) (V, bool) {
	var zero V
	l := s.entry
	for !l.IsLeaf() {
		var c *Node[K, V]
		if l.IsSentinel() || s.less(key, l.K) {
			c = l.left.Load()
		} else {
			c = l.right.Load()
		}
		c = resolve(c, s.ver)
		if c == nil {
			return zero, false
		}
		l = c
	}
	if !l.IsSentinel() && !s.less(key, l.K) && !s.less(l.K, key) {
		return valueOf(l), true
	}
	return zero, false
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited; if fn returns false the scan stops
// early. The whole scan observes the single capture point: one in-order walk
// with per-child resolution, never retrying.
func (s *Snap[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	n, _ := s.walk(s.entry, true, lo, true, hi, fn)
	return n
}

// Ascend calls fn for every key in ascending order and returns the number of
// keys visited; if fn returns false the scan stops early.
func (s *Snap[K, V]) Ascend(fn func(k K, v V) bool) int {
	var zero K
	n, _ := s.walk(s.entry, false, zero, false, zero, fn)
	return n
}

// walk is the bounded in-order traversal under resolution. Left subtrees
// hold keys strictly below the routing key, right subtrees the rest;
// sentinel internals route every real key left, so their right children
// (sentinel leaves, or the entry's nil right field) are pruned.
func (s *Snap[K, V]) walk(n *Node[K, V], useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) (int, bool) {
	if n == nil {
		return 0, true
	}
	if n.IsLeaf() {
		if n.IsSentinel() {
			return 0, true
		}
		k := n.K
		if (useLo && s.less(k, lo)) || (useHi && s.less(hi, k)) {
			return 0, true
		}
		if !fn(k, valueOf(n)) {
			return 1, false
		}
		return 1, true
	}
	count := 0
	if !useLo || n.IsSentinel() || s.less(lo, n.K) {
		c := resolve(n.left.Load(), s.ver)
		cnt, cont := s.walk(c, useLo, lo, useHi, hi, fn)
		count += cnt
		if !cont {
			return count, false
		}
	}
	if !n.IsSentinel() && (!useHi || !s.less(hi, n.K)) {
		c := resolve(n.right.Load(), s.ver)
		cnt, cont := s.walk(c, useLo, lo, useHi, hi, fn)
		count += cnt
		if !cont {
			return count, false
		}
	}
	return count, true
}

// Diff implements dict.Differ: it calls fn for every key whose presence or
// value differs between s (the older view) and other, in ascending key
// order, and reports whether it handled the pair (false when other is not a
// view of the same tree, in which case dict.SnapshotDiff falls back to a
// scan merge). The walk descends the two versions in lockstep, pairing
// subtrees that span the same key interval: pointer-equal leaves are skipped
// without touching their values, pointer-equal internals and internals with
// equal routing keys descend pairwise, and only genuinely divergent regions
// are enumerated and merged. Exactness of the pointer-equal-leaf skip
// requires s to have been held live continuously since its capture (see
// dict.SnapshotDiff).
func (s *Snap[K, V]) Diff(other dict.SnapshotView[K, V], eq func(a, b V) bool, fn func(key K, oldV V, oldOK bool, newV V, newOK bool) bool) bool {
	o, ok := other.(*Snap[K, V])
	if !ok || o.entry != s.entry {
		return false
	}
	s.diffWalk(s.entry, o.entry, o, eq, fn)
	return true
}

type snapKV[K, V any] struct {
	k K
	v V
}

// diffWalk diffs two same-interval subtrees, a resolved under s.ver and b
// under o.ver. It returns false if fn stopped the diff.
func (s *Snap[K, V]) diffWalk(a, b *Node[K, V], o *Snap[K, V], eq func(V, V) bool, fn func(K, V, bool, V, bool) bool) bool {
	if a == b {
		if a == nil || a.IsLeaf() {
			// Pointer-equal leaves are value-equal: overwrites while either
			// snapshot was live went through leaf replacement.
			return true
		}
		if !s.diffWalk(resolve(a.left.Load(), s.ver), resolve(a.left.Load(), o.ver), o, eq, fn) {
			return false
		}
		return s.diffWalk(resolve(a.right.Load(), s.ver), resolve(a.right.Load(), o.ver), o, eq, fn)
	}
	if a != nil && b != nil && !a.IsLeaf() && !b.IsLeaf() && sameRouting(s.less, a, b) {
		if !s.diffWalk(resolve(a.left.Load(), s.ver), resolve(b.left.Load(), o.ver), o, eq, fn) {
			return false
		}
		return s.diffWalk(resolve(a.right.Load(), s.ver), resolve(b.right.Load(), o.ver), o, eq, fn)
	}
	// Divergent region: enumerate both sides and merge.
	var as, bs []snapKV[K, V]
	s.collect(a, s.ver, &as)
	s.collect(b, o.ver, &bs)
	i, j := 0, 0
	var zero V
	for i < len(as) || j < len(bs) {
		switch {
		case j == len(bs) || (i < len(as) && s.less(as[i].k, bs[j].k)):
			if !fn(as[i].k, as[i].v, true, zero, false) {
				return false
			}
			i++
		case i == len(as) || s.less(bs[j].k, as[i].k):
			if !fn(bs[j].k, zero, false, bs[j].v, true) {
				return false
			}
			j++
		default:
			if !eq(as[i].v, bs[j].v) {
				if !fn(as[i].k, as[i].v, true, bs[j].v, true) {
					return false
				}
			}
			i++
			j++
		}
	}
	return true
}

// sameRouting reports whether two internal nodes carry the same routing key
// (sentinels route identically by definition).
func sameRouting[K, V any](less func(K, K) bool, a, b *Node[K, V]) bool {
	if a.IsSentinel() || b.IsSentinel() {
		return a.IsSentinel() && b.IsSentinel()
	}
	return !less(a.K, b.K) && !less(b.K, a.K)
}

// collect appends the (key, value) pairs of a resolved subtree in order.
func (s *Snap[K, V]) collect(n *Node[K, V], ver uint64, out *[]snapKV[K, V]) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		if !n.IsSentinel() {
			*out = append(*out, snapKV[K, V]{n.K, valueOf(n)})
		}
		return
	}
	s.collect(resolve(n.left.Load(), ver), ver, out)
	if !n.IsSentinel() {
		s.collect(resolve(n.right.Load(), ver), ver, out)
	}
}

// ---------------------------------------------------------------------------
// Tree-side capture.

// Snapshot captures the tree's current state in O(1) — independent of the
// dictionary's size — and returns its frozen view (one handle allocation).
// The view stays valid and unchanging under arbitrary concurrent updates
// until Release is called; holding it parks reclamation of the nodes it can
// reach (and disables the in-place overwrite fast path on this tree), so
// release views promptly.
func (t *Tree[K, V]) Snapshot() dict.SnapshotView[K, V] {
	return t.snapshot()
}

// snapshot is Snapshot returning the concrete view type: it runs the capture
// protocol.
//
// Order matters. The pin registers first so every later retire parks behind
// it. snapLive rises next, then the capture advances the version clock and
// takes the value it advanced from as its version, and only then do the open
// publish windows drain (epoch.DrainWindows). The drain-last order closes
// both races at once. Value cells: a fast-path overwrite that opened its
// window before snapLive rose has its Swap complete before the drain returns,
// i.e. before any read through the view, and every later overwrite sees
// snapLive != 0 and takes the leaf-replacement slow path, so captured values
// are frozen. Structure: an update reads the clock inside its window, so one
// that read a tick at or below the captured version opened its window before
// the clock advanced and its update CAS is through by the time the drain
// returns - a covered node can never surface mid-capture and un-freeze the
// view - while one whose window opens after the drain passed its slot reads
// the advanced clock and is not covered. (Draining before the advance has
// the opposite hole: a writer can open its window after the drain and still
// read the old tick.)
func (t *Tree[K, V]) snapshot() *Snap[K, V] {
	s := &Snap[K, V]{entry: t.entry, less: t.less, live: &t.snapLive}
	s.pin = epoch.SnapPin()
	t.snapLive.Add(1)
	sched.Point(sched.PointSnapPublish)
	s.ver = t.gver.Add(1) - 1
	epoch.DrainWindows()
	return s
}
