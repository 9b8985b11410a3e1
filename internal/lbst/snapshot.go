package lbst

import (
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/sched"
)

// This file implements O(1) versioned snapshots for the engine's trees (and,
// through the same generic walk, the chromatic tree): Snapshot captures a
// frozen point-in-time view in constant time, and scans over the view walk
// plain pointers with zero VLX validation, zero retries and zero per-node
// CASes. The full safety argument lives in DESIGN.md ("Versioned
// snapshots"); the mechanism in brief:
//
//   - every committed SCX stamps the subtree root it installs with a commit
//     tick drawn from the tree's gver counter, and records the displaced
//     value of the field in the new node's prev link. Both happen in the
//     tree's OnCommit hook (llxscx.Pool), BEFORE the update CAS, so a node
//     readable out of a mutable field is always already stamped — which
//     makes ticks monotone along structural dependencies and a captured
//     gver value a consistent cut of the update history;
//   - a snapshot is the pair (entry, ver = gver at capture). A walk resolves
//     every child pointer it loads: a node stamped after ver is rewound
//     through its prev chain to the version the snapshot captured. Fresh
//     interior nodes of an update are never stamped (only the CASed-in root
//     is); they carry no prev link and are accepted as-is, which is sound
//     because they are reachable only through their update's accepted root;
//   - values stay frozen because Insert's in-place overwrite fast path is
//     disabled while any snapshot is live (the overwrite becomes a
//     leaf-replacement SCX, which the resolution walk rewinds like any other
//     update), and capture drains in-flight fast-path publishes before it
//     reads gver;
//   - memory stays valid because capture registers a long-lived epoch pin
//     (epoch.SnapPin) before reading gver: every node the snapshot can reach
//     that is later retired was retired after the pin registered, so its
//     grace period parks it behind the pin instead of recycling it.
//
// Under -tags noepoch the commit hook never runs and nothing is stamped;
// Snapshot degrades to a weakly consistent live view (Consistent reports
// false), matching the garbage-collected fallback semantics elsewhere.

// VersionedView is the shape a node must expose for frozen-version walks, on
// top of the traversal View: its commit tick and previous-version link.
type VersionedView[N, K, V any] interface {
	View[N, K, V]
	// SnapVer returns the node's commit tick; nodes never installed as an
	// update's subtree root report either 0 (pre-reclamation construction)
	// or the pending marker (fresh interiors), both handled by resolve.
	SnapVer() uint64
	// SnapPrev returns the value the field that installed this node held
	// immediately before, or nil.
	SnapPrev() *N
}

// resolve rewinds a just-loaded child pointer to the version a snapshot
// captured: nodes stamped after ver are stepped back through their prev
// chain. A node without a prev link is accepted as-is — it is either ancient
// (tick 0), or a fresh unstamped interior of an update whose root the walk
// already accepted. The epoch pin held by the snapshot guarantees every node
// on the chain is still valid memory (see the capture argument in DESIGN.md).
func resolve[P VersionedView[N, K, V], N, K, V any](c P, ver uint64) P {
	var nilNode P
	for c != nilNode {
		if c.SnapVer() <= ver {
			return c
		}
		p := P(c.SnapPrev())
		if p == nilNode {
			return c
		}
		c = p
	}
	return nilNode
}

// Snap is a frozen point-in-time view of a versioned tree. It implements
// dict.SnapshotView and dict.Differ. The zero value is not meaningful; views
// are produced by the trees' Snapshot methods.
type Snap[P VersionedView[N, K, V], N, K, V any] struct {
	entry P
	less  func(K, K) bool
	ver   uint64
	// pin is the long-lived epoch registration keeping reachable retired
	// nodes parked; nil under -tags noepoch.
	pin *epoch.SnapGuard
	// live points at the owning tree's live-snapshot counter, decremented on
	// Release to re-enable the in-place overwrite fast path.
	live     *atomic.Int64
	released atomic.Bool
}

// Version returns the capture's commit tick.
func (s *Snap[P, N, K, V]) Version() uint64 { return s.ver }

// Consistent reports whether the view is frozen: true except under
// -tags noepoch, where snapshots degrade to live views.
func (s *Snap[P, N, K, V]) Consistent() bool { return s.pin != nil }

// Release ends the view's lifetime: it re-enables the source tree's in-place
// overwrite fast path and unpins the epoch layer, letting parked retirees
// recycle. Idempotent.
func (s *Snap[P, N, K, V]) Release() {
	if s.released.Swap(true) {
		return
	}
	if s.live != nil {
		s.live.Add(-1)
	}
	s.pin.Release()
}

// Get returns the value associated with key in the snapshot. Plain reads
// plus resolution only: no validation, no retries.
func (s *Snap[P, N, K, V]) Get(key K) (V, bool) {
	var zero V
	var nilNode P
	l := s.entry
	for !l.IsLeaf() {
		var c P
		if viewLess[P, N, K, V](s.less, key, l) {
			c = P(l.Mutable(0).Load())
		} else {
			c = P(l.Mutable(1).Load())
		}
		c = resolve(c, s.ver)
		if c == nilNode {
			return zero, false
		}
		l = c
	}
	if !l.IsSentinel() && !s.less(key, l.Key()) && !s.less(l.Key(), key) {
		return valueOf[P, N, K, V](l), true
	}
	return zero, false
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited; if fn returns false the scan stops
// early. The whole scan observes the single capture point: one in-order walk
// with per-child resolution, never retrying.
func (s *Snap[P, N, K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	n, _ := s.walk(s.entry, true, lo, true, hi, fn)
	return n
}

// Ascend calls fn for every key in ascending order and returns the number of
// keys visited; if fn returns false the scan stops early.
func (s *Snap[P, N, K, V]) Ascend(fn func(k K, v V) bool) int {
	var zero K
	n, _ := s.walk(s.entry, false, zero, false, zero, fn)
	return n
}

// walk is the bounded in-order traversal under resolution. Left subtrees
// hold keys strictly below the routing key, right subtrees the rest;
// sentinel internals route every real key left, so their right children
// (sentinel leaves, or the entry's nil right field) are pruned.
func (s *Snap[P, N, K, V]) walk(n P, useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) (int, bool) {
	var nilNode P
	if n == nilNode {
		return 0, true
	}
	if n.IsLeaf() {
		if n.IsSentinel() {
			return 0, true
		}
		k := n.Key()
		if (useLo && s.less(k, lo)) || (useHi && s.less(hi, k)) {
			return 0, true
		}
		if !fn(k, valueOf[P, N, K, V](n)) {
			return 1, false
		}
		return 1, true
	}
	count := 0
	if !useLo || n.IsSentinel() || s.less(lo, n.Key()) {
		c := resolve(P(n.Mutable(0).Load()), s.ver)
		cnt, cont := s.walk(c, useLo, lo, useHi, hi, fn)
		count += cnt
		if !cont {
			return count, false
		}
	}
	if !n.IsSentinel() && (!useHi || !s.less(hi, n.Key())) {
		c := resolve(P(n.Mutable(1).Load()), s.ver)
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
func (s *Snap[P, N, K, V]) Diff(other dict.SnapshotView[K, V], eq func(a, b V) bool, fn func(key K, oldV V, oldOK bool, newV V, newOK bool) bool) bool {
	o, ok := other.(*Snap[P, N, K, V])
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
func (s *Snap[P, N, K, V]) diffWalk(a, b P, o *Snap[P, N, K, V], eq func(V, V) bool, fn func(K, V, bool, V, bool) bool) bool {
	var nilNode P
	if a == b {
		if a == nilNode || a.IsLeaf() {
			// Pointer-equal leaves are value-equal: overwrites while either
			// snapshot was live went through leaf replacement.
			return true
		}
		lf, rf := a.Mutable(0), a.Mutable(1)
		if !s.diffWalk(resolve(P(lf.Load()), s.ver), resolve(P(lf.Load()), o.ver), o, eq, fn) {
			return false
		}
		return s.diffWalk(resolve(P(rf.Load()), s.ver), resolve(P(rf.Load()), o.ver), o, eq, fn)
	}
	if a != nilNode && b != nilNode && !a.IsLeaf() && !b.IsLeaf() && sameRouting(s.less, a, b) {
		if !s.diffWalk(resolve(P(a.Mutable(0).Load()), s.ver), resolve(P(b.Mutable(0).Load()), o.ver), o, eq, fn) {
			return false
		}
		return s.diffWalk(resolve(P(a.Mutable(1).Load()), s.ver), resolve(P(b.Mutable(1).Load()), o.ver), o, eq, fn)
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
func sameRouting[P VersionedView[N, K, V], N, K, V any](less func(K, K) bool, a, b P) bool {
	if a.IsSentinel() || b.IsSentinel() {
		return a.IsSentinel() && b.IsSentinel()
	}
	return !less(a.Key(), b.Key()) && !less(b.Key(), a.Key())
}

// collect appends the (key, value) pairs of a resolved subtree in order.
func (s *Snap[P, N, K, V]) collect(n P, ver uint64, out *[]snapKV[K, V]) {
	var nilNode P
	if n == nilNode {
		return
	}
	if n.IsLeaf() {
		if !n.IsSentinel() {
			*out = append(*out, snapKV[K, V]{n.Key(), valueOf[P, N, K, V](n)})
		}
		return
	}
	s.collect(resolve(P(n.Mutable(0).Load()), ver), ver, out)
	if !n.IsSentinel() {
		s.collect(resolve(P(n.Mutable(1).Load()), ver), ver, out)
	}
}

// ---------------------------------------------------------------------------
// Tree-side capture.

// Snapshot captures the tree's current state in O(1) — independent of the
// dictionary's size — and returns its frozen view (one handle allocation).
// The view stays valid and unchanging under arbitrary concurrent updates
// until Release is called; holding it parks reclamation of the nodes it can
// reach (and disables the in-place overwrite fast path on this tree), so
// release views promptly. Under -tags noepoch the view degrades to a weakly
// consistent live view (Consistent reports false).
func (t *Tree[K, V]) Snapshot() dict.SnapshotView[K, V] {
	return t.snapshot()
}

// snapshot is Snapshot returning the concrete view type.
func (t *Tree[K, V]) snapshot() *Snap[*Node[K, V], Node[K, V], K, V] {
	return CaptureSnap[*Node[K, V], Node[K, V], K, V](t.entry, t.less, &t.gver, &t.snapLive, &t.fastWriters)
}

// CaptureSnap runs the capture protocol for any tree sharing the versioned
// walk (the engine's trees and the chromatic tree): entry and less identify
// the tree, gver its commit-tick counter, snapLive its live-snapshot count
// and fastWriters its in-flight fast-path overwrite count.
//
// Order matters. The pin registers first so every later retire parks behind
// it. snapLive rises next, the version is read, and only then do the
// in-flight publish windows drain. The drain-last order closes both races at
// once. Value cells: a fast-path overwrite that entered its bracket before
// snapLive rose has its Swap complete before the drain observes zero — i.e.
// before any read through the view — and every later overwrite sees
// snapLive != 0 and takes the leaf-replacement slow path, so captured values
// are frozen. Structure: a version tick at or below the captured gver was
// assigned inside a bracket opened before the gver read, so by the time the
// drain observes zero its update CAS has gone through — a covered node can
// never surface mid-capture and un-freeze the view. (Draining before the
// gver read has the opposite hole: a writer can open its bracket after the
// drain and still stamp at or below the version read afterwards.) Under
// -tags noepoch the returned view is a weakly consistent live view
// (Consistent reports false).
func CaptureSnap[P VersionedView[N, K, V], N, K, V any](entry P, less func(K, K) bool, gver *atomic.Uint64, snapLive, fastWriters *atomic.Int64) *Snap[P, N, K, V] {
	s := &Snap[P, N, K, V]{entry: entry, less: less}
	if !epoch.Enabled {
		s.ver = ^uint64(0) // accept every node: a live view
		return s
	}
	s.pin = epoch.SnapPin()
	snapLive.Add(1)
	s.live = snapLive
	sched.Point(sched.PointSnapPublish)
	s.ver = gver.Load()
	sched.WaitZero(sched.PointSnapDrain, fastWriters)
	return s
}

// Versions returns the commit ticks of the top-level subtree roots currently
// retained in the tree's bounded root forest, unordered. Observability and
// tests only: snapshot resolution does not consult the forest.
func (t *Tree[K, V]) Versions() []uint64 {
	var out []uint64
	for i := range t.roots {
		if n := t.roots[i].Load(); n != nil {
			out = append(out, n.snapVer.Load())
		}
	}
	return out
}
