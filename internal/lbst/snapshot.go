package lbst

import (
	"cmp"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/sched"
)

// This file implements the engine's versioned reads: O(1) snapshots, and the
// live reads - range scans and the ordered point queries of Section 5.5 of
// the paper - which walk the same kind of cut for the length of one
// operation. Snapshot captures a frozen point-in-time view in constant time,
// and reads of a view or of a live read's cut walk plain pointers with zero
// VLX validation, zero retries and zero per-node CASes. The full safety
// argument lives in DESIGN.md ("Versioned snapshots"); the mechanism in
// brief:
//
//   - every committed SCX stamps the subtree root it installs with the
//     current value of the tree's version clock gver, which it only reads,
//     and records the displaced value of the field in the new node's prev
//     link. Both happen in the tree's OnCommit hook (llxscx.Pool), BEFORE the
//     update CAS, so a node readable out of a mutable field is always
//     already stamped — which makes ticks monotone along structural
//     dependencies and a captured version a consistent cut of the update
//     history. Updates between two captures share a tick;
//   - capture advances the clock: a cut is the pair (entry, ver = the value
//     it advanced gver from), and capture then waits out the publish windows
//     open on the epoch slots, inside which updates read the clock and
//     install, so a node stamped at or below ver is in the tree before the
//     cut is first read. A walk resolves every child pointer it loads: a node
//     stamped after ver is rewound through its prev chain to the version the
//     cut captured. Fresh interior nodes of an update are never stamped (only
//     the CASed-in root is); they carry no prev link and are accepted as-is,
//     which is sound because they are reachable only through their update's
//     accepted root;
//   - a snapshot's values stay frozen because Insert's in-place overwrite
//     fast path is disabled while any snapshot is live (the overwrite becomes
//     a leaf-replacement SCX, which the resolution walk rewinds like any
//     other update), and the same drain waits out the fast-path publishes
//     that did not see the snapshot registered. A live read leaves the fast
//     path on: its keys are the cut's, and each value is one its key held
//     during the read;
//   - memory stays valid because the walk's pin comes before the clock
//     advance: every node a cut can reach that is later retired was retired
//     after the pin. A live read holds its operation's ordinary pin, which
//     keeps those nodes from being recycled until it returns; a snapshot
//     registers a long-lived epoch pin (epoch.SnapPin), which holds them on
//     their retire lists until Release.
//
// The live tree is itself a cut, at version liveVer, where resolve never
// rewinds: Min and Max, Size and Keys walk it with plain loads.

// liveVer is the version of the live tree: every tick is at or below it, so
// resolving at it keeps every node as loaded.
const liveVer = ^uint64(0)

// valueOf loads the value of leaf l. Under -tags reclaimcheck it panics if
// the generation of l or of its value cell changed across the load: the
// reclamation layer recycled memory a pinned reader could still reach, which
// the grace-period argument in DESIGN.md says must never happen.
func valueOf[K, V any](l *Node[K, V]) V {
	var g0 uint64
	if epoch.PoisonCheck {
		g0 = l.Gen()
	}
	v := l.val.Load()
	if epoch.PoisonCheck && l.Gen() != g0 {
		panic("lbst: node or value cell recycled under a pinned reader (reclaimcheck)")
	}
	return v
}

// resolve rewinds a just-loaded child pointer to the version a cut
// captured: nodes stamped after ver are stepped back through their prev
// chain. A node without a prev link is accepted as-is — it is either ancient
// (tick 0), or a fresh unstamped interior of an update whose root the walk
// already accepted. The pin taken before the capture guarantees every node
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
// dict.SnapshotView. The zero value is not meaningful; views are produced by
// the trees' Snapshot methods.
type Snap[K cmp.Ordered, V any] struct {
	entry *Node[K, V]
	ver   uint64
	// pin is the long-lived epoch registration keeping reachable retired
	// nodes from being recycled.
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

// Release ends the view's lifetime: it re-enables the source tree's in-place
// overwrite fast path and unpins the epoch layer, letting the retirees the
// view held recycle. Idempotent.
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
		if keyLess(key, l) {
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
	if isKey(key, l) {
		return valueOf(l), true
	}
	return zero, false
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited; if fn returns false the scan stops
// early. The whole scan observes the single capture point: one in-order walk
// with per-child resolution, never retrying.
func (s *Snap[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	return s.walk(true, lo, true, hi, fn)
}

// Ascend calls fn for every key in ascending order and returns the number of
// keys visited; if fn returns false the scan stops early.
func (s *Snap[K, V]) Ascend(fn func(k K, v V) bool) int {
	var zero K
	return s.walk(false, zero, false, zero, fn)
}

// walkPoint is the walk's instrumentation point. It is the one function of
// this package that calls sched.Point and is not generic, so compiling the
// package inlines Point into it, and a body is re-exported only by a package
// that inlined it: this is what lets every package that instantiates the
// engine inline the generic code's Point calls too (the commit hook's, the
// overwrite's, vcell's publish), where they would otherwise stay calls.
// TestInliningGuard checks it.
func walkPoint() { sched.Point(sched.PointScanWalk) }

// stackCap is the capacity of the stack buffer walk sets subtrees aside on.
// It comfortably covers the height of a balanced tree with millions of keys.
const stackCap = 48

// walk is the bounded in-order traversal under resolution, of a snapshot
// view and of a live read's cut alike, from the entry node. Left subtrees
// hold keys strictly below the routing key, right subtrees the rest;
// sentinel internals route every real key left, so their right children
// (sentinel leaves, or the entry's nil right field) are pruned. It descends
// to the leftmost leaf in range and sets aside on an explicit stack each
// right subtree that may hold keys of the range: no call per node, and the
// first read of a set-aside child's line overlaps the walk of its left
// sibling. The stack lives on the frame up to stackCap entries (deeper
// only in the unbalanced EBST, where append moves it to the heap). Each child
// load crosses sched.PointScanWalk, so the schedule controller can run an
// update between two of the walk's reads.
func (s *Snap[K, V]) walk(useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) int {
	var buf [stackCap]*Node[K, V]
	pending := buf[:0] // right subtrees still to walk, the next one last
	count := 0
	for n := s.entry; ; {
		if n != nil && !n.IsLeaf() {
			inf := n.IsSentinel()
			if !inf && (!useHi || !cmp.Less(hi, n.K)) {
				walkPoint()
				if r := resolve(n.right.Load(), s.ver); r != nil {
					pending = append(pending, r)
				}
			}
			if !useLo || inf || cmp.Less(lo, n.K) {
				walkPoint()
				n = resolve(n.left.Load(), s.ver)
			} else {
				n = nil
			}
			continue
		}
		if n != nil && !n.IsSentinel() {
			if k := n.K; (!useLo || !cmp.Less(k, lo)) && (!useHi || !cmp.Less(hi, k)) {
				count++
				if !fn(k, valueOf(n)) {
					return count
				}
			}
		}
		if len(pending) == 0 {
			return count
		}
		n = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
}

// neighbor is the ordered point query on the cut: the nearest key on side d
// of key, above it for d = 0 (Successor) and below it for d = 1
// (Predecessor). With bounded false, key is ignored and stands for the
// infinity opposite d: the nearest key above minus infinity is Min, the
// nearest below plus infinity is Max. The near side of a node is its left
// child for d = 0 and its right child for d = 1.
//
// The search for key goes left at a sentinel, whose key is plus infinity,
// and otherwise by the comparison; an infinite key goes near. A leaf it
// reaches on side d of key is the answer. Otherwise that leaf holds key or
// lies on the other side of it, and the answer is the leaf nearest to key in
// the far subtree of the last node at which the search turned near (the
// dictionary has no key on side d if it never did). Every child pointer is
// resolved at the cut's version, so both descents read one state of the
// tree, and nothing is validated or retried.
//
// Min and Max read the live tree, at liveVer, and only ever take the first
// answer: the search path for minus infinity is the leftmost spine, for plus
// infinity the spine that turns left at the sentinels and right everywhere
// else, and the leaf ending it was on that path, and so the minimum or the
// maximum, at some instant of the search - the argument Get rests on.
//
// A sentinel leaf answers ok == false on either side: the search reaches one
// only in an empty dictionary, and the far walk only the top sentinel's right
// child, above every key.
func (s *Snap[K, V]) neighbor(d int, bounded bool, key K) (k K, v V, ok bool) {
	var turn *Node[K, V] // the last node at which the search turned near
	l := s.entry
	for a := l.rec.Aux(); a&auxLeaf == 0; a = l.rec.Aux() {
		left := d == 0
		if a&auxInf != 0 {
			left = true
		} else if bounded {
			left = cmp.Less(key, l.K)
		}
		if left == (d == 0) {
			turn = l
		}
		walkPoint()
		if left {
			l = resolve(l.left.Load(), s.ver)
		} else {
			l = resolve(l.right.Load(), s.ver)
		}
	}
	if l.IsSentinel() {
		return k, v, false
	}
	if !bounded || (d == 0 && cmp.Less(key, l.K)) || (d != 0 && cmp.Less(l.K, key)) {
		return l.K, valueOf(l), true
	}
	if turn == nil {
		return k, v, false
	}
	// The turn's far child, then near children down to a leaf.
	walkPoint()
	if d == 0 {
		l = resolve(turn.right.Load(), s.ver)
	} else {
		l = resolve(turn.left.Load(), s.ver)
	}
	for !l.IsLeaf() {
		walkPoint()
		if d == 0 {
			l = resolve(l.left.Load(), s.ver)
		} else {
			l = resolve(l.right.Load(), s.ver)
		}
	}
	if l.IsSentinel() {
		return k, v, false
	}
	return l.K, valueOf(l), true
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
// it. snapLive rises next, then capture advances the version clock and
// drains the open publish windows. The drain-last order closes both races at
// once. Value cells: a fast-path overwrite that opened its window before
// snapLive rose has its Swap complete before the drain returns, i.e. before
// any read through the view, and every later overwrite sees snapLive != 0
// and takes the leaf-replacement slow path, so captured values are frozen.
// Structure: see capture.
func (t *Tree[K, V]) snapshot() *Snap[K, V] {
	s := &Snap[K, V]{entry: t.entry, live: &t.snapLive}
	s.pin = epoch.SnapPin()
	t.snapLive.Add(1)
	sched.Point(sched.PointSnapPublish)
	s.ver = t.capture()
	return s
}

// capture takes a cut of the tree for a snapshot or a live read whose pin
// is already held: it advances the version clock, takes the value it
// advanced from as the cut's version, and only then drains the publish
// windows (epoch.DrainWindows). An update reads the clock inside its window,
// so one that read a tick at or below the version opened its window before
// the clock advanced and its update CAS is through by the time the drain
// returns - a covered node can never surface mid-walk and tear the cut -
// while one whose window opens after the drain passed its slot reads the
// advanced clock and is not covered. (Draining before the advance has the
// opposite hole: a writer can open its window after the drain and still
// read the old tick.) The SkipScanDrain mutation skips the drain.
func (t *Tree[K, V]) capture() uint64 {
	ver := t.gver.Add(1) - 1
	if !sched.Mutated(sched.SkipScanDrain) {
		epoch.DrainWindows()
	}
	return ver
}

// scan is the traversal behind RangeScan and Ascend, inside the caller's
// pinned region: one capture, then one walk of the cut at its version, with
// no snapshot pin, no handle and no snapLive registration. The keys it emits
// are the range's content at the cut, whatever its length. The in-place
// overwrite stays on, so a value is loaded when its leaf is reached: a value
// the key held during the scan, which is the guarantee the per-key ScanSteps
// of internal/linearize check.
func (t *Tree[K, V]) scan(useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) int {
	s := Snap[K, V]{entry: t.entry, ver: t.capture()}
	return s.walk(useLo, lo, useHi, hi, fn)
}

// neighbor is the point query behind Successor, Predecessor, Min and Max,
// inside the caller's pinned region: a bounded query takes a cut, as scan
// does, and answers at its version; Min and Max read the live tree (see
// Snap.neighbor). The SkipNeighborCut mutation reads the live tree for a
// bounded query too.
func (t *Tree[K, V]) neighbor(d int, bounded bool, key K) (K, V, bool) {
	s := Snap[K, V]{entry: t.entry, ver: liveVer}
	if bounded && !sched.Mutated(sched.SkipNeighborCut) {
		s.ver = t.capture()
	}
	return s.neighbor(d, bounded, key)
}
