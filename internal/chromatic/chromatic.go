// Package chromatic implements the non-blocking chromatic tree of Brown,
// Ellen and Ruppert, "A General Technique for Non-blocking Trees"
// (PPoPP 2014), Section 5 and Appendix C.
//
// A chromatic tree is a leaf-oriented binary search tree that relaxes the
// balance conditions of a red-black tree: node colours are replaced by
// non-negative integer weights (0 = red, 1 = black, >1 = overweight) and the
// red-black properties may be violated transiently. Dictionary keys are
// stored only in leaves; internal nodes carry routing keys. Insertions and
// deletions are decoupled from rebalancing: each is a small localized update
// that follows the tree update template (LLX on a handful of nodes followed
// by one SCX), and a separate set of 22 localized rebalancing steps (Boyar,
// Fagerberg and Larsen) restores balance. Every operation is non-blocking
// and linearizable, and the height of the tree is O(c + log n) where c is
// the number of insertions and deletions in progress.
//
// Tree (the exported type) is generic over the key and value types - only
// the search routine compares keys, exactly as the paper's template
// promises - and supports Get, Insert, LoadOrStore, Delete, Successor,
// Predecessor and the derived ordered scans. NewOrdered builds a tree over
// any cmp.Ordered key type, NewLess accepts an arbitrary comparator (see
// dict.Less for the contract), and New keeps the historical int64
// instantiation. The Chromatic6 variant of the paper — which postpones
// rebalancing until more than six violations accumulate on a search path —
// is obtained with WithAllowedViolations(6) or NewChromatic6.
//
// Every operation runs inside an epoch-reclamation pinned region
// (internal/epoch), and each tree recycles its nodes and value cells through
// pools, exactly as the shared engine in internal/lbst does: a node removed
// by a committed SCX is retired under the operation's guard and re-enters the
// pool only after a grace period, and a cell when the last node aliasing it
// has. A node is one 64-byte cache line for word-sized keys; the 32-byte
// cells live outside the nodes. SCX descriptors are not allocated: every SCX
// reuses the descriptor of the operation's epoch slot (internal/llxscx). The
// safety argument is re-derived in DESIGN.md ("Epoch reclamation and the ABA
// re-derivation"). Build with -tags noepoch to fall back to garbage-collected
// reclamation.
package chromatic

import (
	"cmp"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/sched"
	"repro/internal/vcell"
)

// node is a Data-record of the chromatic tree. Its two child pointers are
// the only mutable fields; key, weight and the leaf/sentinel flags are
// immutable, exactly as the tree update template requires. Updates that
// need to change immutable data replace the node with a fresh copy.
//
// A node is one 64-byte cache line for word-sized keys, and everything a
// search reads (flags and weight, key, children) comes first, so a descent
// touches one line per level whatever the key type. The weight and the two
// flags share the 32 bits llxscx.Record leaves to its node (see aux).
//
// A leaf's value is NOT immutable data: it lives in a vcell.Cell outside the
// node and outside the LLX snapshot evidence, so overwriting the value of a
// present key (the paper's Insert2 case) is a single atomic publish instead
// of a full SCX. A fresh leaf draws its cell from the tree's cell pool; every
// copy aliases the source's cell and holds one of its references (copyNode),
// which keeps a racing overwrite visible through whichever copy wins.
type node[K, V any] struct {
	rec llxscx.Record[node[K, V]]
	// gen counts how many times this node's memory has been recycled through
	// the pool (zero-size unless -tags reclaimcheck).
	gen epoch.Gen
	k   K // routing key (internal) or dictionary key (leaf); ignored if inf

	left, right atomic.Pointer[node[K, V]]

	val *vcell.Cell[V] // value cell (leaves only; nil on internal/sentinel nodes)

	// snapVer and prev are the versioned-snapshot bookkeeping, maintained by
	// the tree's SCX commit hook exactly as on lbst.Node: snapVer is
	// the commit tick stamped (from pending) immediately before the update
	// CAS that installs the node, prev the value the installing field held
	// before. See internal/lbst/snapshot.go and DESIGN.md ("Versioned
	// snapshots").
	snapVer atomic.Uint64
	prev    atomic.Pointer[node[K, V]]
}

// The node's 32 bits of record data: the leaf and sentinel flags in the two
// low bits, the weight (0 = red, 1 = black, >1 = overweight) in the 30 above
// them, read back signed so that a weight that wrapped shows up negative in
// CheckInvariants instead of as some small valid weight.
const (
	auxLeaf   = 1 << 0 // leaves' child pointers are always nil
	auxInf    = 1 << 1 // sentinel nodes, whose key is +infinity
	auxWShift = 2

	maxWeight = 1<<(31-auxWShift) - 1
)

func aux(w int32, leaf, inf bool) uint32 {
	a := uint32(w) << auxWShift
	if leaf {
		a |= auxLeaf
	}
	if inf {
		a |= auxInf
	}
	return a
}

// w returns the node's weight.
func (n *node[K, V]) w() int32 { return int32(n.rec.Aux()) >> auxWShift }

// verPending marks a node whose installing update has not been stamped with
// a commit tick; it compares greater than every capture version.
const verPending = ^uint64(0)

// SnapVer implements lbst.VersionedView.
func (n *node[K, V]) SnapVer() uint64 { return n.snapVer.Load() }

// SnapPrev implements lbst.VersionedView.
func (n *node[K, V]) SnapPrev() *node[K, V] { return n.prev.Load() }

// LLXRecord implements llxscx.DataRecord.
func (n *node[K, V]) LLXRecord() *llxscx.Record[node[K, V]] { return &n.rec }

// NumMutable implements llxscx.DataRecord.
func (n *node[K, V]) NumMutable() int { return 2 }

// Mutable implements llxscx.DataRecord.
func (n *node[K, V]) Mutable(i int) *atomic.Pointer[node[K, V]] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

// Key implements lbst.View, so the chromatic tree shares the engine's
// ordered-query helpers (see query.go).
func (n *node[K, V]) Key() K { return n.k }

// Value implements lbst.View. It reads the leaf's value cell atomically;
// internal and sentinel nodes (nil cell) read as the zero value.
func (n *node[K, V]) Value() V { return n.val.Load() }

// IsLeaf implements lbst.View.
func (n *node[K, V]) IsLeaf() bool { return n.rec.Aux()&auxLeaf != 0 }

// IsSentinel implements lbst.View.
func (n *node[K, V]) IsSentinel() bool { return n.rec.Aux()&auxInf != 0 }

// Gen returns the reclamation generation of the node and, for a leaf, of its
// value cell: each is bumped when its memory is recycled through a pool, so
// the sum changes when either is. It only changes under -tags reclaimcheck,
// where the shared query helpers use it to assert that neither is recycled
// while a pinned reader can still reach it.
func (n *node[K, V]) Gen() uint64 { return n.gen.Load() + n.val.Gen() }

// Stats counts the number of successful updates of each kind performed on a
// tree. It is intended for tests and experiments; counts are monotone and
// only approximately ordered with respect to concurrent operations.
type Stats struct {
	Insert1, Insert2, Delete          atomic.Int64
	BLK, RB1, RB2, PUSH, W7           atomic.Int64
	W1, W2, W3, W4, W5, W6            atomic.Int64
	MirrorRB1, MirrorRB2, MirrorPUSH  atomic.Int64
	MirrorW1, MirrorW2, MirrorW3      atomic.Int64
	MirrorW4, MirrorW5, MirrorW6      atomic.Int64
	MirrorW7                          atomic.Int64
	RebalanceAttempts, RebalanceFails atomic.Int64
}

// RebalanceTotal returns the total number of successful rebalancing steps.
func (s *Stats) RebalanceTotal() int64 {
	return s.BLK.Load() + s.RB1.Load() + s.RB2.Load() + s.PUSH.Load() + s.W7.Load() +
		s.W1.Load() + s.W2.Load() + s.W3.Load() + s.W4.Load() + s.W5.Load() + s.W6.Load() +
		s.MirrorRB1.Load() + s.MirrorRB2.Load() + s.MirrorPUSH.Load() + s.MirrorW7.Load() +
		s.MirrorW1.Load() + s.MirrorW2.Load() + s.MirrorW3.Load() + s.MirrorW4.Load() +
		s.MirrorW5.Load() + s.MirrorW6.Load()
}

// Tree is a non-blocking chromatic tree implementing an ordered dictionary
// with keys ordered by a comparator. It is safe for concurrent use by any
// number of goroutines. The zero value is not usable; call New, NewOrdered
// or NewLess.
type Tree[K, V any] struct {
	// Two groups, a full cache line apart wherever the allocator puts the
	// header: every operation reads the first, every commit writes the second
	// (gver, fastWriters, stats) and must not invalidate the first with it.

	// entry is the sentinel entry point (Figure 10 of the paper). It is
	// never removed. entry.left is the root of the structure: a sentinel
	// leaf when the dictionary is empty, or a sentinel internal node whose
	// left subtree is the chromatic tree proper and whose right child is a
	// sentinel leaf.
	entry *node[K, V]

	// less orders the keys; sentinels compare greater than every key.
	less func(a, b K) bool

	// allowed is the number of violations tolerated on a search path before
	// an insertion or deletion that created a violation triggers Cleanup.
	// 0 reproduces the paper's Chromatic, 6 reproduces Chromatic6.
	allowed int

	// searchFn performs the plain-read BST search of Figure 5. It is
	// selected at construction: NewLess installs the comparator-based loop,
	// NewOrdered a specialization that compares with the native `<`, so
	// ordered-key trees pay one indirect call per search instead of one per
	// node.
	searchFn func(t *Tree[K, V], key K) (gp, p, l *node[K, V], violations int)

	// nodePool recycles this tree's nodes; nodes enter it only through the
	// epoch layer's grace period (or releaseFresh, for nodes that were
	// never published). Per-tree, because the pool is generic over K and V.
	// Heap-allocated separately rather than embedded: a sync.Pool that has
	// ever been used registers itself with the runtime for the rest of the
	// process, and an embedded pool would pin the whole Tree — root and all
	// its nodes — as a GC root long after the tree is dropped.
	nodePool *sync.Pool
	// cells recycles the leaves' value cells: a cell returns to it when the
	// last node aliasing it has been freed (see freeNode).
	cells *vcell.Pool[V]
	// descPool carries the commit hooks set in NewLess into every SCX on
	// this tree (see llxscx.Pool); the descriptors belong to the epoch slots.
	descPool *llxscx.Pool[node[K, V]]
	// freeNodeFn is the epoch callback for retired nodes, built once at
	// construction so retireNode never allocates a closure.
	freeNodeFn epoch.Func

	_ [64]byte

	// gver, snapLive, fastWriters and the root forest mirror the
	// versioned-snapshot state of lbst.Tree; see internal/lbst/snapshot.go.
	gver        atomic.Uint64
	snapLive    atomic.Int64
	fastWriters atomic.Int64
	roots       [rootHistory]atomic.Pointer[node[K, V]]
	rootsIdx    atomic.Uint64

	stats Stats
}

// rootHistory bounds the retained root forest, as in internal/lbst.
const rootHistory = 8

// config collects the option-controlled settings, so one Option type serves
// every key/value instantiation of Tree.
type config struct {
	allowed int
}

// Option configures a Tree at construction time.
type Option func(*config)

// WithAllowedViolations sets the number of violations tolerated on a search
// path before rebalancing is triggered (Section 5.6 of the paper). k = 0 is
// the plain chromatic tree; k = 6 is the paper's Chromatic6 variant.
func WithAllowedViolations(k int) Option {
	if k < 0 {
		k = 0
	}
	return func(c *config) { c.allowed = k }
}

// NewLess returns an empty chromatic tree whose keys are ordered by less.
func NewLess[K, V any](less func(a, b K) bool, opts ...Option) *Tree[K, V] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	t := &Tree[K, V]{
		less:     less,
		allowed:  cfg.allowed,
		searchFn: searchLess[K, V],
		nodePool: &sync.Pool{New: func() any { return new(node[K, V]) }},
		cells:    vcell.NewPool[V](),
		descPool: llxscx.NewPool[node[K, V]](),
	}
	var sentinelKey K
	t.entry = t.internalNode(sentinelKey, 1, true, t.newNode(sentinelKey, aux(1, true, true)), nil)
	t.freeNodeFn = func(g *epoch.Guard, obj any) bool {
		t.freeNode(obj.(*node[K, V]))
		return true
	}
	// Commit hook of the versioned-snapshot layer: stamp the installed
	// subtree root and its prev link before the update CAS publishes it, and
	// publish top-level roots into the bounded forest. Idempotent, as every
	// helper invokes it; see internal/lbst for the full argument.
	t.descPool.OnCommit = func(fld *atomic.Pointer[node[K, V]], old, new *node[K, V]) {
		// Stamp→install bracket, closed by OnInstalled after the update CAS;
		// Snapshot reads the version counter and then drains fastWriters.
		// See the lbst commit hook for the full ordering argument.
		t.fastWriters.Add(1)
		if new.snapVer.Load() == verPending {
			new.prev.Store(old)
			sched.Point(sched.PointVerStamp)
			new.snapVer.CompareAndSwap(verPending, t.gver.Add(1))
		}
		if fld == &t.entry.left {
			t.roots[t.rootsIdx.Add(1)%rootHistory].Store(new)
		}
	}
	t.descPool.OnInstalled = func() { t.fastWriters.Add(-1) }
	return t
}

// NewOrdered returns an empty chromatic tree over a naturally ordered key
// type. It behaves exactly like NewLess with cmp.Less, but installs a search
// routine specialized to the native `<` operator, removing the indirect
// comparator call per node on the read path.
func NewOrdered[K cmp.Ordered, V any](opts ...Option) *Tree[K, V] {
	t := NewLess[K, V](cmp.Less[K], opts...)
	t.searchFn, _ = orderedSearchFor[K, V]()
	return t
}

// orderedSearchFor selects the search routine a NewOrdered tree installs:
// the concrete string specialization when K is string (the type assertion
// succeeds exactly then), the generic cmp.Ordered specialization otherwise.
// The boolean reports whether the string specialization was chosen; it
// exists for the construction tests, since the function values themselves
// are hidden behind instantiation wrappers.
func orderedSearchFor[K cmp.Ordered, V any]() (func(*Tree[K, V], K) (gp, p, l *node[K, V], violations int), bool) {
	if fn, ok := any(searchString[V]).(func(*Tree[K, V], K) (gp, p, l *node[K, V], violations int)); ok {
		return fn, true
	}
	return searchOrdered[K, V], false
}

// New returns an empty chromatic tree with int64 keys and values, the
// instantiation the benchmark registry and the paper's figures use.
func New(opts ...Option) *Tree[int64, int64] {
	return NewOrdered[int64, int64](opts...)
}

// NewChromatic6 returns an empty int64-keyed chromatic tree configured as
// the paper's Chromatic6 variant (rebalancing deferred until a search path
// carries more than six violations).
func NewChromatic6() *Tree[int64, int64] { return New(WithAllowedViolations(6)) }

// Name identifies the configuration for benchmark reports.
func (t *Tree[K, V]) Name() string {
	if t.allowed == 0 {
		return "Chromatic"
	}
	if t.allowed == 6 {
		return "Chromatic6"
	}
	return "Chromatic" + itoa(t.allowed)
}

// Stats returns the tree's operation counters.
func (t *Tree[K, V]) Stats() *Stats { return &t.stats }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Pooled node lifecycle. The protocol is shared with internal/lbst (see its
// package comment and DESIGN.md for the safety argument); it is instantiated
// here a second time because the chromatic tree keeps its own hand-unrolled
// node type, exactly as the paper keeps its pseudocode concrete.

// newNode returns a node with the given key, weight and flags and nothing
// else set, drawn from the tree's node pool (a fresh allocation under -tags
// noepoch, where the commit hook must find nothing to stamp).
func (t *Tree[K, V]) newNode(k K, a uint32) *node[K, V] {
	if !epoch.Enabled {
		n := &node[K, V]{k: k}
		n.rec.SetAux(a)
		return n
	}
	n := t.nodePool.Get().(*node[K, V])
	n.k = k
	n.rec.SetAux(a)
	n.snapVer.Store(verPending)
	return n
}

// leafNode returns a leaf holding key and value, with a cell of its own from
// the tree's cell pool.
func (t *Tree[K, V]) leafNode(k K, v V, w int32) *node[K, V] {
	n := t.newNode(k, aux(w, true, false))
	n.val = t.cells.Get(v)
	return n
}

// internalNode returns an internal node with the given children.
func (t *Tree[K, V]) internalNode(k K, w int32, inf bool, left, right *node[K, V]) *node[K, V] {
	n := t.newNode(k, aux(w, false, inf))
	n.left.Store(left)
	n.right.Store(right)
	return n
}

// copyNode returns a fresh copy of the node captured by lk, with the given
// weight and with the children recorded in lk's snapshot. The copy ALIASES
// the source's value cell rather than capturing the value, so an in-place
// overwrite racing with the copying SCX stays visible through the copy
// whichever commits first (see Insert's overwrite protocol), and takes a
// reference on the cell: the caller is pinned and reached the source in the
// tree, so the source cannot have been freed and still holds its own.
func (t *Tree[K, V]) copyNode(lk llxscx.Linked[node[K, V]], w int32) *node[K, V] {
	src := lk.Node()
	n := t.newNode(src.k, aux(w, src.IsLeaf(), src.IsSentinel()))
	if !src.IsLeaf() {
		n.left.Store(lk.Child(0))
		n.right.Store(lk.Child(1))
	} else if c := src.val; c != nil {
		c.Retain()
		n.val = c
	}
	return n
}

// internalLike creates a fresh internal node carrying src's routing key and
// sentinel flag, with the given weight and children.
func (t *Tree[K, V]) internalLike(src *node[K, V], w int32, left, right *node[K, V]) *node[K, V] {
	return t.internalNode(src.k, w, src.IsSentinel(), left, right)
}

// retireNode hands a node that a committed SCX removed from the tree to the
// reclamation layer under the operation's pinned guard: it re-enters the
// node pool after a grace period. A no-op under -tags noepoch (the garbage
// collector reclaims the node).
func (t *Tree[K, V]) retireNode(g *epoch.Guard, n *node[K, V]) {
	epoch.Retire(g, n, t.freeNodeFn)
}

// releaseFresh recycles a freshly built node whose SCX failed. Such a node
// was never published - no other operation can have seen it - so it
// re-enters the pool immediately, without a grace period. A no-op under
// -tags noepoch.
func (t *Tree[K, V]) releaseFresh(n *node[K, V]) {
	if !epoch.Enabled {
		return
	}
	t.freeNode(n)
}

// scx performs one SCX on the guard's descriptor and, on success, retires
// the removed nodes r[:nr]. On failure the caller is responsible for
// releasing the fresh nodes it built (releaseFresh). Reading fields of a
// retired node afterwards is still safe inside the invoking operation's
// pinned region: the node cannot be recycled before the guard is released
// plus a grace period.
func (t *Tree[K, V]) scx(g *epoch.Guard, v *[llxscx.MaxV]llxscx.Linked[node[K, V]], nv int, r *[llxscx.MaxV]*node[K, V], nr int, fld *atomic.Pointer[node[K, V]], old, new *node[K, V]) bool {
	if !llxscx.SCXP(g, t.descPool, v, nv, r, nr, fld, old, new) {
		return false
	}
	for i := 0; i < nr; i++ {
		t.retireNode(g, r[i])
	}
	return true
}

// freeNode runs after a retired node's grace period (or immediately, for a
// never-published fresh node): it drops the node's reference on its value
// cell, clears the node with plain stores and returns it to the pool, as
// lbst.Tree's freeNode does (the argument is there).
func (t *Tree[K, V]) freeNode(n *node[K, V]) {
	if c := n.val; c != nil {
		t.cells.Release(c)
		n.val = nil
	}
	llxscx.ReleaseRecord(&n.rec)
	var zeroK K
	n.k = zeroK
	n.left = atomic.Pointer[node[K, V]]{}
	n.right = atomic.Pointer[node[K, V]]{}
	n.prev = atomic.Pointer[node[K, V]]{}
	n.gen.Bump()
	t.nodePool.Put(n)
}

// DrainReclaim drains the epoch layer's retire lists, returning the number
// of objects still pending (process-wide). Meant for tests and quiescent
// shutdown; see epoch.Drain.
func (t *Tree[K, V]) DrainReclaim() int64 {
	return epoch.Drain()
}

// ---------------------------------------------------------------------------

// keyLess reports whether key is strictly smaller than n's key, treating
// sentinel nodes as holding +infinity.
func (t *Tree[K, V]) keyLess(key K, n *node[K, V]) bool {
	return n.IsSentinel() || t.less(key, n.k)
}

// isKey reports whether the leaf l holds exactly key (two comparator calls,
// since keys are equal exactly when neither orders before the other).
func (t *Tree[K, V]) isKey(key K, l *node[K, V]) bool {
	return !l.IsSentinel() && !t.less(key, l.k) && !t.less(l.k, key)
}

// search performs an ordinary BST search for key using plain reads of child
// pointers, exactly as Figure 5 of the paper. It returns the grandparent,
// parent and leaf reached (the grandparent is nil when the chromatic tree is
// empty) together with the number of violations observed on the path, which
// the Chromatic6 variant uses to decide whether to rebalance.
func (t *Tree[K, V]) search(key K) (gp, p, l *node[K, V], violations int) {
	return t.searchFn(t, key)
}

// The search loops read each node's packed weight and flags once (la, with
// the parent's in pa) and decide everything about the node from that word.

// searchLess is the comparator-based search loop installed by NewLess.
func searchLess[K, V any](t *Tree[K, V], key K) (gp, p, l *node[K, V], violations int) {
	p = t.entry
	l = p.left.Load()
	pa, la := p.rec.Aux(), l.rec.Aux()
	if violationIn(pa, la) {
		violations++
	}
	for la&auxLeaf == 0 {
		gp, p = p, l
		if la&auxInf != 0 || t.less(key, l.k) {
			l = l.left.Load()
		} else {
			l = l.right.Load()
		}
		pa, la = la, l.rec.Aux()
		if violationIn(pa, la) {
			violations++
		}
	}
	return gp, p, l, violations
}

// searchOrdered is the devirtualized search loop installed by NewOrdered:
// identical to searchLess, but the per-node comparison is the native `<` of
// a cmp.Ordered key type instead of an indirect call through t.less.
func searchOrdered[K cmp.Ordered, V any](t *Tree[K, V], key K) (gp, p, l *node[K, V], violations int) {
	p = t.entry
	l = p.left.Load()
	pa, la := p.rec.Aux(), l.rec.Aux()
	if violationIn(pa, la) {
		violations++
	}
	for la&auxLeaf == 0 {
		gp, p = p, l
		if la&auxInf != 0 || key < l.k {
			l = l.left.Load()
		} else {
			l = l.right.Load()
		}
		pa, la = la, l.rec.Aux()
		if violationIn(pa, la) {
			violations++
		}
	}
	return gp, p, l, violations
}

// searchString is searchOrdered instantiated at the concrete string type.
// Generic instantiations are compiled per GC shape, where the comparison and
// key loads go through the shape dictionary; pinning K to string lets the
// compiler emit the direct string-compare call. NewOrdered[string, V]
// installs it via the type assertion above, which succeeds exactly when K is
// string.
func searchString[V any](t *Tree[string, V], key string) (gp, p, l *node[string, V], violations int) {
	p = t.entry
	l = p.left.Load()
	pa, la := p.rec.Aux(), l.rec.Aux()
	if violationIn(pa, la) {
		violations++
	}
	for la&auxLeaf == 0 {
		gp, p = p, l
		if la&auxInf != 0 || key < l.k {
			l = l.left.Load()
		} else {
			l = l.right.Load()
		}
		pa, la = la, l.rec.Aux()
		if violationIn(pa, la) {
			violations++
		}
	}
	return gp, p, l, violations
}

// violationAt reports whether a violation (overweight or red-red) occurs at
// child given its parent.
func violationAt[K, V any](parent, child *node[K, V]) bool {
	return violationIn(parent.rec.Aux(), child.rec.Aux())
}

// violationIn is violationAt on the two nodes' packed words: the weight sits
// above the flag bits, so a word is below 1<<auxWShift exactly when the
// weight is zero (red) and reaches 2<<auxWShift exactly when it exceeds one.
func violationIn(parent, child uint32) bool {
	return child >= 2<<auxWShift || parent|child < 1<<auxWShift
}

// Get returns the value associated with key, or the zero value and false if
// key is absent. Get uses only plain reads and never blocks or retries
// (property C3 of the paper makes such searches linearizable).
func (t *Tree[K, V]) Get(key K) (V, bool) {
	g := epoch.Pin()
	_, _, l, _ := t.search(key)
	if t.isKey(key, l) {
		var g0 uint64
		if epoch.PoisonCheck {
			g0 = l.Gen()
		}
		v := l.val.Load()
		if epoch.PoisonCheck && l.Gen() != g0 {
			panic("chromatic: leaf or value cell recycled under a pinned reader (reclaimcheck)")
		}
		epoch.Unpin(g)
		return v, true
	}
	epoch.Unpin(g)
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	g := epoch.Pin()
	_, _, l, _ := t.search(key)
	ok := t.isKey(key, l)
	epoch.Unpin(g)
	return ok
}

// updateResult carries the outcome of a successful tryInsert or tryDelete.
type updateResult[V any] struct {
	old              V
	existed          bool
	createdViolation bool
}

// Insert associates value with key and returns the previously associated
// value (with true) if key was already present, or the zero value and false
// otherwise.
//
// When key is present (the paper's Insert2 transformation) the overwrite is
// performed IN PLACE, without an SCX and (for unboxed value types) without
// allocating: the cell's publish bracket is opened (vcell.BeginPublish),
// the leaf's finalized flag is checked, and if the leaf is live the new
// value is published with one atomic Swap before the bracket closes. A
// finalized leaf fails the attempt with nothing published and the
// operation re-searches. The overwrite linearizes at the Swap even if the
// leaf is finalized immediately after: a finalizer that must report the
// displaced value (tryDelete, tryReplace) drains the cell's bracket after
// its SCX commits and before it loads the cell, so a publish whose bracket
// saw the leaf un-finalized is totally ordered before the finalizer's load
// and cannot be missed - and no publish can land after it. See the full
// protocol argument in internal/lbst (Insert's comment); this engine
// mirrors it exactly. Copies alias the leaf's cell (copyNode: the
// rebalancing steps, tryDelete's promoted sibling, tryInsert's
// overweight-leaf copy) and the bracket lives on the cell, so both the
// published value and the bracket follow the cell through every copy - a
// racing copy can never lose either.
//
// Under pooled reclamation the whole operation runs inside ONE pinned
// region, so no leaf the operation reaches can be recycled (and its cell
// reset) before the operation returns.
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	old, existed, _ := t.InsertBounded(key, value, dict.Budget{})
	return old, existed
}

// InsertBounded is Insert under a per-operation budget (dict.Budget),
// mirroring the lbst engine's contract: the retry loop gives up with
// ErrRetryBudget/ErrDeadline, a budget failure is always effect-free (a
// failed in-place attempt publishes nothing; see the bracket protocol in
// Insert's comment), the uncontended path never consults the budget, and
// the guard is released by defer so a panicking attempt cannot wedge the
// epoch.
func (t *Tree[K, V]) InsertBounded(key K, value V, budget dict.Budget) (V, bool, error) {
	// A failed attempt means a concurrent update won the SCX in this
	// neighbourhood (or the leaf was finalized under an overwrite); back off
	// (bounded, randomized, growing with the failure count) before
	// re-searching so heavy contention on a small key range does not
	// degenerate into a storm of wasted re-searches.
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		if err := budget.Check(fails); err != nil {
			var zero V
			return zero, false, err
		}
		_, p, l, viol := t.search(key)
		if t.isKey(key, l) {
			if epoch.Enabled {
				// While a snapshot handle is live the in-place publish would
				// mutate a value the snapshot captured, so the overwrite
				// degrades to a leaf-replacement SCX; fastWriters brackets the
				// publish so a concurrent capture can drain in-flight writers.
				// See Snapshot and internal/lbst/snapshot.go.
				t.fastWriters.Add(1)
				if t.snapLive.Load() != 0 {
					t.fastWriters.Add(-1)
					if old, done := t.tryReplace(g, key, value, p, l); done {
						t.stats.Insert2.Add(1)
						return old, true, nil
					}
				} else {
					old, ok := tryPublish(l, value)
					t.fastWriters.Add(-1)
					if ok {
						t.stats.Insert2.Add(1)
						return old, true, nil
					}
				}
			} else if old, ok := tryPublish(l, value); ok {
				t.stats.Insert2.Add(1)
				return old, true, nil
			}
			fails++
			core.BackoffWait(fails)
			continue
		}
		res, ok := t.tryInsert(g, p, l, key, value)
		if !ok {
			fails++
			core.BackoffWait(fails)
			continue
		}
		if res.createdViolation && viol+1 > t.allowed {
			t.cleanup(g, key)
		}
		return res.old, res.existed, nil
	}
}

// tryPublish is one attempt of the in-place overwrite (see the protocol in
// Insert's comment): open the cell's publish bracket, check the leaf is not
// finalized, and publish with one Swap. A finalized leaf fails the attempt
// with nothing published; the caller re-searches. The bracket is
// straight-line and park-free - its instrumentation points are excluded
// from chaos panic/abandon injection - so a finalizer's DrainPublishers
// always terminates.
func tryPublish[K, V any](l *node[K, V], value V) (V, bool) {
	l.val.BeginPublish()
	sched.Point(sched.PointVCellRecheck)
	if l.rec.Marked() {
		l.val.EndPublish()
		// Help the SCX that finalized the leaf before failing. LLX on a
		// marked record helps its in-progress descriptor to completion, so
		// the overwrite's retry finds the replacement subtree installed
		// instead of spinning against a stalled finalizer. Without this the
		// retry loop makes no progress on the blocker and the overwrite is
		// not lock-free (a single parked deleter could starve it forever).
		llxscx.LLX(l)
		var zero V
		return zero, false
	}
	old := l.val.Swap(value)
	l.val.EndPublish()
	return old, true
}

// LoadOrStore returns the value already associated with key (with
// loaded=true) if key is present; otherwise it inserts value and returns it
// (with loaded=false). Unlike a Get-then-Insert pair, a LoadOrStore race
// between two goroutines guarantees exactly one of them stores, which makes
// it the right primitive for sharing per-key state (for example a counter)
// between concurrent writers.
func (t *Tree[K, V]) LoadOrStore(key K, value V) (actual V, loaded bool) {
	// The guard is released by defer (panic-safety, as in InsertBounded).
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		_, p, l, viol := t.search(key)
		if t.isKey(key, l) {
			// The key was present while l was on the search path; linearize
			// there, exactly as Get does.
			return l.val.Load(), true
		}
		res, ok := t.tryInsert(g, p, l, key, value)
		if !ok {
			fails++
			core.BackoffWait(fails)
			continue
		}
		if res.createdViolation && viol+1 > t.allowed {
			t.cleanup(g, key)
		}
		return value, false
	}
}

// Delete removes key and returns the value that was associated with it (with
// true), or the zero value and false if key was not present.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	old, existed, _ := t.DeleteBounded(key, dict.Budget{})
	return old, existed
}

// DeleteBounded is Delete under a per-operation budget; a budget failure is
// always effect-free (an attempt either commits its SCX or changed
// nothing). The guard is released by defer for the same panic-safety as
// InsertBounded.
func (t *Tree[K, V]) DeleteBounded(key K, budget dict.Budget) (V, bool, error) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		if err := budget.Check(fails); err != nil {
			var zero V
			return zero, false, err
		}
		gp, p, l, viol := t.search(key)
		res, ok := t.tryDelete(g, gp, p, l, key)
		if !ok {
			fails++
			core.BackoffWait(fails)
			continue
		}
		if res.createdViolation && viol+1 > t.allowed {
			t.cleanup(g, key)
		}
		return res.old, res.existed, nil
	}
}

// tryInsert performs one attempt of the insertion update at leaf l with
// parent p, following the tree update template (Figure 12 of the paper and
// the Insert transformations of Figure 11). It returns ok=false if the
// attempt must be retried from a fresh search. It runs under the invoking
// operation's pinned guard g.
func (t *Tree[K, V]) tryInsert(g *epoch.Guard, p, l *node[K, V], key K, value V) (updateResult[V], bool) {
	lkP, st := llxscx.LLX(p)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}
	var fld *atomic.Pointer[node[K, V]]
	switch {
	case lkP.Child(0) == l:
		fld = &p.left
	case lkP.Child(1) == l:
		fld = &p.right
	default:
		return updateResult[V]{}, false
	}
	lkL, st := llxscx.LLX(l)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}

	// Insert1: the key is absent (Insert routes a present key to the in-place
	// overwrite, and l's key is immutable, so the caller's check holds for
	// this attempt); replace the leaf with an internal node whose children
	// are a new leaf holding the key and the old leaf. A node placed directly
	// below a sentinel (in particular the chromatic root) always gets weight
	// one, which keeps every violation strictly below the root; elsewhere the
	// internal node absorbs one unit of the old leaf's weight so weighted
	// path lengths are unchanged.
	//
	// When the old leaf already has weight one - the weight its copy would
	// carry - the leaf itself is reused as the fringe of the new subtree and
	// nothing is finalized (R is empty, postcondition PC6), exactly as in the
	// non-blocking BST of Ellen et al. that the template generalizes. l is
	// still in V, so the SCX fails if any concurrent update froze it. Only an
	// overweight leaf must be replaced by a weight-one copy (and finalized,
	// PC9); the copy aliases l's value cell so a racing in-place overwrite of
	// l's key stays visible through it.
	var res updateResult[V]
	var repl *node[K, V]
	nr := 1
	var newWeight int32 = 1
	if !l.IsSentinel() && !p.IsSentinel() {
		newWeight = l.w() - 1
	}
	newKeyLeaf := t.leafNode(key, value, 1)
	oldLeaf := l
	if l.w() != 1 {
		oldLeaf = t.copyNode(lkL, 1)
	} else {
		nr = 0
	}
	if t.keyLess(key, l) {
		repl = t.internalNode(l.k, newWeight, l.IsSentinel(), newKeyLeaf, oldLeaf)
	} else {
		repl = t.internalNode(key, newWeight, false, oldLeaf, newKeyLeaf)
	}

	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkP, lkL}
	r := [llxscx.MaxV]*node[K, V]{l}
	if !t.scx(g, &v, 2, &r, nr, fld, l, repl) {
		t.releaseFresh(newKeyLeaf)
		if oldLeaf != l {
			t.releaseFresh(oldLeaf)
		}
		t.releaseFresh(repl)
		return updateResult[V]{}, false
	}
	t.stats.Insert1.Add(1)
	res.createdViolation = repl.w() == 0 && p.w() == 0
	return res, true
}

// tryReplace is one attempt of the snapshot-safe overwrite of a present key:
// it replaces the leaf with a fresh leaf of the same weight owning a fresh
// cell, via an insertion-shaped pooled SCX that finalizes the old leaf, so
// live snapshots keep reading the old leaf's frozen cell through the
// replacement's prev link. Weighted path lengths are unchanged, so no
// violation can be created. The displaced value is read from the old leaf's
// cell after the SCX commits, as in tryDelete.
func (t *Tree[K, V]) tryReplace(g *epoch.Guard, key K, value V, p, l *node[K, V]) (V, bool) {
	var zero V
	lkP, st := llxscx.LLX(p)
	if st != llxscx.Snapshot {
		return zero, false
	}
	var fld *atomic.Pointer[node[K, V]]
	switch {
	case lkP.Child(0) == l:
		fld = &p.left
	case lkP.Child(1) == l:
		fld = &p.right
	default:
		return zero, false
	}
	lkL, st := llxscx.LLX(l)
	if st != llxscx.Snapshot {
		return zero, false
	}
	repl := t.leafNode(key, value, l.w())
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkP, lkL}
	r := [llxscx.MaxV]*node[K, V]{l}
	if !t.scx(g, &v, 2, &r, 1, fld, l, repl) {
		t.releaseFresh(repl)
		return zero, false
	}
	// The SCX finalized l, so in-place publishers now fail their bracket
	// check; drain the brackets already open, then load (see Insert's
	// comment and the protocol argument in internal/lbst).
	l.val.DrainPublishers()
	return l.val.Load(), true
}

// tryDelete performs one attempt of the deletion update at leaf l with
// parent p and grandparent gp, following Figure 6 of the paper. It returns
// ok=false if the attempt must be retried from a fresh search. It runs under
// the invoking operation's pinned guard g.
func (t *Tree[K, V]) tryDelete(g *epoch.Guard, gp, p, l *node[K, V], key K) (updateResult[V], bool) {
	// Special case: the chromatic tree is empty (the leaf reached is the
	// sentinel leaf directly below entry), so key is certainly absent.
	if gp == nil {
		return updateResult[V]{existed: false}, true
	}
	// Special case: key is not in the dictionary.
	if !t.isKey(key, l) {
		return updateResult[V]{existed: false}, true
	}

	lkGP, st := llxscx.LLX(gp)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}
	var fld *atomic.Pointer[node[K, V]]
	switch {
	case lkGP.Child(0) == p:
		fld = &gp.left
	case lkGP.Child(1) == p:
		fld = &gp.right
	default:
		return updateResult[V]{}, false
	}
	lkP, st := llxscx.LLX(p)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}
	// Identify the sibling of l from p's snapshot.
	var s *node[K, V]
	var lIsLeft bool
	switch {
	case lkP.Child(0) == l:
		s, lIsLeft = lkP.Child(1), true
	case lkP.Child(1) == l:
		s, lIsLeft = lkP.Child(0), false
	default:
		return updateResult[V]{}, false
	}
	if s == nil {
		return updateResult[V]{}, false
	}
	lkL, st := llxscx.LLX(l)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}
	lkS, st := llxscx.LLX(s)
	if st != llxscx.Snapshot {
		return updateResult[V]{}, false
	}

	// The sibling is promoted into p's place; its weight absorbs p's weight
	// so that weighted path lengths are preserved (Figure 7), except that a
	// node placed directly below a sentinel always gets weight one.
	//
	// The promoted node must be a fresh copy even when the absorbed weight
	// happens to equal the sibling's: the SCX protocol's ABA-freedom rests
	// on every value stored into a child field being newly obtained (a
	// stale helper of an earlier SCX on the same field retries its update
	// CAS unconditionally, and re-installing a pointer the field once held
	// would let that CAS resurrect a finalized subtree). Reuse is only safe
	// for nodes that become children of fresh nodes, as in tryInsert.
	var newWeight int32
	if p.IsSentinel() || gp.IsSentinel() {
		newWeight = 1
	} else {
		newWeight = p.w() + s.w()
	}
	repl := t.copyNode(lkS, newWeight)

	// V and R are ordered by a breadth-first traversal (postcondition PC8):
	// the parent's children appear in left-to-right order. The evidence is
	// staged in stack arrays.
	var v [llxscx.MaxV]llxscx.Linked[node[K, V]]
	var r [llxscx.MaxV]*node[K, V]
	if lIsLeft {
		v = [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkGP, lkP, lkL, lkS}
		r = [llxscx.MaxV]*node[K, V]{p, l, s}
	} else {
		v = [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkGP, lkP, lkS, lkL}
		r = [llxscx.MaxV]*node[K, V]{p, s, l}
	}
	if !t.scx(g, &v, 4, &r, 3, fld, p, repl) {
		t.releaseFresh(repl)
		return updateResult[V]{}, false
	}
	t.stats.Delete.Add(1)
	// The SCX committed, so l is finalized and in-place publishers now fail
	// their bracket check; drain the brackets already open, then load. Every
	// overwrite whose bracket observed l un-finalized has its Swap ordered
	// before this read and is visible in the returned value; no overwrite
	// can land after it (see Insert's comment and the protocol argument in
	// internal/lbst). The read is safe even though l is already retired: the
	// operation is still pinned, so the grace period cannot have elapsed.
	l.val.DrainPublishers()
	return updateResult[V]{
		old:              l.val.Load(),
		existed:          true,
		createdViolation: newWeight > 1,
	}, true
}

// cleanup repeatedly searches for key from the entry point and performs one
// rebalancing step at the first violation it encounters, until it reaches a
// leaf without seeing any violation (Figure 5 of the paper). Because every
// rebalancing step keeps a violation on the search path of the key whose
// insertion or deletion created it (property VIOL), this guarantees the
// violation created by the caller has been eliminated when cleanup returns.
// It runs under the invoking operation's pinned guard g.
func (t *Tree[K, V]) cleanup(g *epoch.Guard, key K) {
	for {
		var ggp, gp *node[K, V]
		p := t.entry
		l := t.entry.left.Load()
		for {
			if violationAt(p, l) {
				// Violations can only occur strictly below the chromatic
				// root (nodes placed directly below sentinels always have
				// weight one), so the great-grandparent always exists here;
				// the guard only protects against giving up cleanup would be
				// wrong, so bail out rather than loop forever.
				if ggp == nil || gp == nil {
					return
				}
				t.tryRebalance(g, ggp, gp, p, l)
				break // restart the search from the entry point
			}
			if l.IsLeaf() {
				return
			}
			ggp, gp, p = gp, p, l
			if t.keyLess(key, l) {
				l = l.left.Load()
			} else {
				l = l.right.Load()
			}
		}
	}
}
