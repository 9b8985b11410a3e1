// Package lbst is a reusable engine for non-blocking, leaf-oriented binary
// search trees built on the tree update template of Brown, Ellen and Ruppert
// ("A General Technique for Non-blocking Trees", PPoPP 2014, Section 4).
//
// The template turns any update to a down-tree into a non-blocking,
// linearizable operation: the update performs LLXs on a contiguous portion
// of the tree that includes the parent node whose child pointer will change
// and every node to be removed, then performs a single SCX that swings that
// child pointer to a freshly allocated subtree and finalizes the removed
// nodes. Every update in this package and in the policies built on it
// satisfies the paper's postconditions on the SCX arguments:
//
//	PC1  V is a subsequence of the sequence of nodes on which LLX was
//	     performed.
//	PC2  R is a subsequence of V.
//	PC3  The node containing the field Fld is in V.
//	PC4  The new nodes form a non-empty down-tree rooted at New.
//	PC5  If Old is nil then R and the fringe of the new subtree are empty.
//	PC6  If R is empty and Old is non-nil, the fringe of the new subtree is
//	     exactly {Old}.
//	PC7  Every node in the new subtree except its fringe is newly allocated.
//	PC8  The V sequences of all updates are ordered consistently with a fixed
//	     tree traversal (for example breadth-first order).
//	PC9  If R is non-empty, the removed nodes form a down-tree rooted at Old
//	     and the fringe of the new subtree equals the fringe of the removed
//	     subtree.
//
// The engine owns everything the three trees of this repository share - the
// unbalanced BST (internal/ebst), the relaxed AVL tree (internal/ravl) and the
// paper's chromatic tree (internal/chromatic): the node and its free lists, the
// sentinel entry structure of Figure 10 of Brown, Ellen and Ruppert (PPoPP
// 2014), the leaf-oriented search loop, the construction of the insertion and
// deletion template updates (so postconditions PC1-PC9 are discharged once,
// here), the SCX-free in-place value overwrite for inserts on present keys
// (see Insert and the value-cell notes on Node and CopyNode), the post-update
// cleanup loop that drives rebalancing (Figure 5), and the versioned reads
// (snapshot.go): O(1) snapshots, and the live range scans and ordered point
// queries, which walk a versioned cut.
//
// The engine is generic over the key and value types. Only the search loop
// compares keys - exactly the paper's point about the template being
// key-type-agnostic - so any cmp.Ordered key type will do, ordered by
// cmp.Less (a NaN key sorts before every other key and equals itself).
//
// A concrete tree supplies a Policy: the meaning of the per-node balancing
// decoration, the decorations the insertion and the deletion assign, how to
// detect a violation of its balance condition, and a set of localized
// rebalancing steps (each itself a template update). The policy for the
// unbalanced BST is trivial - no decoration, no violations, no steps - which
// is exactly the paper's point about how little code a new template-based
// data structure needs. The relaxed AVL policy decorates nodes with heights
// and repairs violations with height fixes and rotations; the chromatic
// policy decorates them with weights and repairs violations with the 11
// steps of Boyar, Fagerberg and Larsen, each written over a side.
//
// # Memory reclamation
//
// Every operation runs inside an epoch-reclamation pinned region
// (internal/epoch), and each tree reuses its nodes and value cells through
// per-slot free lists: a node removed by a committed SCX is retired under the
// operation's guard and reused only after a grace period, and a value cell
// when the last node aliasing it has. A node is one 64-byte cache line for
// word-sized keys; the 24-byte cells live outside the nodes. SCX descriptors
// are not allocated per SCX - every SCX runs on the descriptor of the
// operation's epoch slot and rewrites an argument block that slot replaced
// two epochs before (see internal/llxscx) - so steady-state churn allocates
// (almost) nothing.
// The safety argument - why a pinned operation can never observe a recycled
// node, and how the value-cell aliasing of CopyNode survives manual
// reclamation through the cells' reference counts - is re-derived in
// DESIGN.md ("Epoch reclamation and the ABA re-derivation").
package lbst

import (
	"cmp"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/sched"
	"repro/internal/vcell"
)

// Node is a Data-record of a leaf-oriented BST: immutable key, leaf/sentinel
// flags and balancing decoration, plus the two mutable child pointers
// manipulated through LLX/SCX. Updates that need to change immutable data
// replace the node with a fresh copy, as the template requires.
//
// A Node is one 64-byte cache line for word-sized keys, and everything a
// search reads (flags, key, children) comes first, so a descent reads one
// line of each node on its path whatever the key type. The search also
// requests the line of each path node's sibling, whose flags it loads before
// its comparison resolves (see search). The flags and the decoration share
// the 32 bits llxscx.Record leaves to its node (see aux).
//
// The value of a leaf is NOT part of the node's immutable data: it lives in
// a vcell.Cell outside the node and outside the LLX snapshot evidence, so
// overwriting the value of a present key is a single atomic publish instead
// of a full SCX (see Insert). A fresh leaf draws its cell from a free list.
// Every copy of a leaf - the deletion template promotes a copy of the sibling, and policies copy nodes in their rebalancing steps - aliases
// the source's cell, which keeps a concurrent overwrite from being lost to a
// copy that captured the value just before the publish, and holds one of the
// cell's references (see CopyNode and freeNode).
type Node[K, V any] struct {
	rec llxscx.Record[Node[K, V]]
	// gen counts how many times this node's memory has been freed for reuse
	// (zero-size unless -tags reclaimcheck).
	gen epoch.Gen

	// K is the routing key (internal nodes) or dictionary key (leaves);
	// ignored on sentinels.
	K K

	left, right atomic.Pointer[Node[K, V]]

	// val is the leaf's value cell, shared with every copy of the leaf; nil
	// on internal nodes and sentinel leaves (which read as the zero value).
	// The pointer itself is immutable; the cell's content is published
	// atomically.
	val *vcell.Cell[V]

	// snapVer is the node's commit tick for the versioned-snapshot layer,
	// stored inverted (see ver) so that the zero a recycled or new node
	// carries means verPending: from construction until the node is
	// installed into a mutable field by a committed SCX, at which point the
	// tree's commit hook stamps it (CAS, exactly once) with the tree's
	// version clock — BEFORE the update CAS, so a node readable out of a
	// field is always already stamped. Fresh interior nodes of an update
	// that are not the CASed-in subtree root stay verPending forever; the
	// resolution rule accepts them through their stamped ancestor (see
	// snapshot.go and the "Versioned snapshots" section of DESIGN.md).
	snapVer atomic.Uint64
	// prev is the value the field this node was CASed into held immediately
	// before — the previous version of this position. Written by the commit
	// hook together with the version stamp, before the update CAS (every
	// helper stores the same descriptor-recorded value, so the atomic is only
	// needed to keep the duplicate stores race-clean). Followed only by
	// snapshot resolution walks, whose epoch pin keeps the chain's retired
	// nodes from being recycled. nil for nodes that were never an update's
	// subtree root.
	prev atomic.Pointer[Node[K, V]]
}

// The node's 32 bits of record data: the leaf and sentinel flags in the two
// low bits and the policy's decoration, which must lie in [0, MaxDeco], in
// the 30 above them.
const (
	auxLeaf      = 1 << 0 // dictionary leaves; their child pointers are always nil
	auxInf       = 1 << 1 // sentinel nodes, whose key reads as +infinity
	auxDecoShift = 2

	// MaxDeco is the largest decoration a node can carry.
	MaxDeco = 1<<(32-auxDecoShift) - 1
)

func aux(deco int64, leaf, inf bool) uint32 {
	if deco < 0 || deco > MaxDeco {
		panic("lbst: decoration outside [0, MaxDeco]")
	}
	a := uint32(deco) << auxDecoShift
	if leaf {
		a |= auxLeaf
	}
	if inf {
		a |= auxInf
	}
	return a
}

// verPending marks a node whose installing update has not been stamped with
// a commit tick. It compares greater than every capture version.
const verPending = ^uint64(0)

// ver returns n's commit tick, or verPending.
func (n *Node[K, V]) ver() uint64 { return ^n.snapVer.Load() }

// setChild stores c in the child field f of a node no other goroutine can
// reach yet, with a plain store: the SCX that publishes the node orders it
// before every read. An atomic.Pointer[N] is one pointer word, the erasure
// llxscx's SCX relies on too.
func setChild[K, V any](f *atomic.Pointer[Node[K, V]], c *Node[K, V]) {
	*(**Node[K, V])(unsafe.Pointer(f)) = c
}

// LLXRecord implements llxscx.DataRecord.
func (n *Node[K, V]) LLXRecord() *llxscx.Record[Node[K, V]] { return &n.rec }

// NumMutable implements llxscx.DataRecord.
func (n *Node[K, V]) NumMutable() int { return 2 }

// Mutable implements llxscx.DataRecord.
func (n *Node[K, V]) Mutable(i int) *atomic.Pointer[Node[K, V]] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

// LLX performs an LLX on n, going straight to its record and its two child
// fields instead of through the DataRecord methods above (which the generic
// llxscx.LLX would reach through the type-parameter dictionary). It is the
// LLX of every update in the engine and the policies.
func (n *Node[K, V]) LLX() (llxscx.Linked[Node[K, V]], llxscx.Status) {
	return n.rec.LLX(n, &n.left, &n.right)
}

// IsLeaf reports whether n is a dictionary leaf, whose child pointers are
// always nil.
func (n *Node[K, V]) IsLeaf() bool { return n.rec.Aux()&auxLeaf != 0 }

// IsSentinel reports whether n is a sentinel, whose key reads as +infinity.
func (n *Node[K, V]) IsSentinel() bool { return n.rec.Aux()&auxInf != 0 }

// Deco returns the balancing decoration, owned by the policy (the relaxed
// height in internal/ravl, the weight in internal/chromatic).
func (n *Node[K, V]) Deco() int64 { return int64(n.rec.Aux() >> auxDecoShift) }

// Gen returns the reclamation generation of the node and, for a leaf, of its
// value cell: each is bumped when its memory is freed for reuse, so
// the sum changes when either is. It only changes under -tags reclaimcheck,
// where the poisoning assertions in the read paths use it to prove that
// neither is ever recycled while a pinned operation can still reach it.
func (n *Node[K, V]) Gen() uint64 { return n.gen.Load() + n.val.Gen() }

// Left returns the left child with a plain atomic read. It is intended for
// policies and quiescent inspection, not for lock-free traversals that need
// a consistent view (an update LLXs, a read walks a versioned cut).
func (n *Node[K, V]) Left() *Node[K, V] { return n.left.Load() }

// Right returns the right child with a plain atomic read.
func (n *Node[K, V]) Right() *Node[K, V] { return n.right.Load() }

// Marked reports whether the node has been finalized (removed) by an SCX.
func (n *Node[K, V]) Marked() bool { return n.rec.Marked() }

// FieldOf returns the mutable child field of the node captured by lk that
// pointed to child in its snapshot, or nil if child was not one of its
// children (meaning the tree changed under the caller, who must retry).
func FieldOf[K, V any](lk llxscx.Linked[Node[K, V]], child *Node[K, V]) *atomic.Pointer[Node[K, V]] {
	n := lk.Node()
	if lk.Child(0) == child {
		return &n.left
	}
	if lk.Child(1) == child {
		return &n.right
	}
	return nil
}

// SiblingOf returns the other child of the node captured by lk, or nil if
// child is not one of its snapshot children.
func SiblingOf[K, V any](lk llxscx.Linked[Node[K, V]], child *Node[K, V]) *Node[K, V] {
	if lk.Child(0) == child {
		return lk.Child(1)
	}
	if lk.Child(1) == child {
		return lk.Child(0)
	}
	return nil
}

// Policy parameterizes the engine with a balancing discipline. All methods
// must be safe for concurrent use and read only immutable node data (flags,
// key, decoration) unless stated otherwise; Rebalance must express any
// structural change as a template update (LLXs followed by one SCX) so the
// combined data structure stays non-blocking and linearizable.
type Policy[K, V any] interface {
	// SentinelDeco is the decoration of the two sentinels of the empty tree:
	// the entry node and the sentinel leaf below it.
	SentinelDeco() int64

	// InsertDecos returns the decorations an insertion assigns when it
	// replaces the leaf l below p by an internal node above l and a fresh
	// leaf: the internal node's, the fresh leaf's and the old leaf's. If
	// oldLeaf is the decoration l already carries the engine reuses l itself
	// as the child of the new node and finalizes nothing; otherwise l is
	// finalized and a copy carrying oldLeaf takes its place (see tryInsert).
	InsertDecos(p, l *Node[K, V]) (internal, leaf, oldLeaf int64)

	// PromoteDeco returns the decoration of the copy of s that a deletion
	// installs below gp in place of p, the parent of s and of the removed
	// leaf.
	PromoteDeco(gp, p, s *Node[K, V]) int64

	// CreatesViolation reports whether the insertion or deletion of key that
	// just replaced oldChild by newChild below parent violated the balance
	// condition by more than the policy tolerates, in which case the engine
	// runs its cleanup loop for key. A policy that tolerates violations up to
	// a threshold counts the ones now on key's path with PathViolations.
	CreatesViolation(key K, parent, oldChild, newChild *Node[K, V]) bool

	// Violation reports, using plain reads, whether a rebalancing step is
	// needed at n, whose parent on the search path is parent. n may be a leaf
	// or a sentinel.
	Violation(parent, n *Node[K, V]) bool

	// Rebalance attempts one localized rebalancing step at n, whose nearest
	// ancestors on the search path are p, gp and ggp (gp and ggp are nil
	// where the path is that short). g is the invoking operation's pinned
	// epoch guard; the step is assembled and committed through a Step, which
	// runs the SCX on the guard's descriptor, retires the removed nodes when
	// it succeeds and gives the fresh nodes back when it fails. It returns
	// true if a step was applied; false means the tree changed under it (or
	// the violation vanished) and the cleanup loop re-searches from the entry
	// point.
	Rebalance(g *epoch.Guard, ggp, gp, p, n *Node[K, V]) bool
}

// Tree is a non-blocking leaf-oriented BST over keys ordered by cmp.Less
// and balanced according to a Policy. It is safe for concurrent use. Use
// NewOrdered.
type Tree[K cmp.Ordered, V any] struct {
	// Two groups, a full cache line apart wherever the allocator puts the
	// header. Every operation reads the first. An update writes neither: what
	// it writes besides nodes (its publish windows, a policy's step counters)
	// is on the epoch slot it holds pinned. The second group is written by
	// captures (a snapshot's or a live read's) and snapshot release only, and
	// must not invalidate the first when it is.
	entry *Node[K, V]
	pol   Policy[K, V]

	free []freeList[K, V] // one per epoch slot
	// descPool carries the commit hook below into every SCX on this tree
	// (see llxscx.Pool); the descriptors themselves belong to the epoch slots.
	descPool *llxscx.Pool[Node[K, V]]
	// freeNodeFn is the epoch callback for retired nodes, built once at
	// construction so retiring a node never allocates a closure.
	freeNodeFn epoch.Func
	unboxed    bool // vcell.Unboxed[V](), every cell's representation

	_ [64]byte

	// gver is the tree's version clock for versioned reads. Captures (by
	// Snapshot, RangeScan, Ascend, Successor and Predecessor) advance it;
	// updates only read it: the commit hook stamps every CASed-in subtree
	// root with the clock's current value immediately before the update CAS,
	// inside a publish window, and a capture takes the value it advanced the
	// clock from as its version.
	// Updates between two captures share a tick; resolution only ever
	// compares a tick with a version.
	gver atomic.Uint64
	// snapLive counts this tree's live snapshot handles. While nonzero,
	// Insert's in-place overwrite fast path is disabled so captured leaves
	// stay frozen (values included); see Insert and Snapshot. Updates read
	// it, and like gver it stays shared in their caches between captures.
	snapLive atomic.Int64
}

// NewOrdered returns an empty tree whose balance is governed by pol. The
// entry structure is the chromatic tree's (Figure 10 of the paper):
// entry.left is a sentinel leaf when the dictionary is empty, otherwise a
// sentinel internal node whose left subtree is the tree proper and whose
// right child is a sentinel leaf, so every leaf always has a parent and, when
// the tree is non-empty, a grandparent.
func NewOrdered[K cmp.Ordered, V any](pol Policy[K, V]) *Tree[K, V] {
	t := &Tree[K, V]{
		pol:      pol,
		free:     epoch.NewAligned[[epoch.NumSlots]freeList[K, V]]()[:],
		descPool: llxscx.NewPool[Node[K, V]](),
		unboxed:  vcell.Unboxed[V](),
	}
	// The sentinels are built before any operation holds a slot to draw from.
	deco, leaf := pol.SentinelDeco(), new(Node[K, V])
	leaf.rec.SetAux(aux(deco, true, true))
	t.entry = new(Node[K, V])
	t.entry.rec.SetAux(aux(deco, false, true))
	setChild(&t.entry.left, leaf)
	t.freeNodeFn = func(g *epoch.Guard, obj any) bool {
		t.freeNode(g, obj.(*Node[K, V]))
		return true
	}
	// The commit hook stamps the freshly installed subtree root with the
	// version clock BEFORE the update CAS publishes it (see
	// llxscx.Pool.OnCommit): a node readable out of a mutable field is
	// therefore always stamped, which is what makes ticks monotone along
	// structural dependencies and a captured version a consistent cut
	// (DESIGN.md, "Versioned snapshots"). llxscx runs the hook inside a
	// publish window that stays open until the update CAS is through; a
	// capture advances the clock and then drains the windows, so a node
	// stamped with the tick a capture covers is installed before the capture's
	// first read. Reading the clock outside the window lets a covered node
	// surface mid-capture and un-freeze the view (the StampBeforeWindow
	// mutation; caught by the enumerations in sched_snapshot_test.go). Every
	// helper calls the hook, so the stamp CAS makes it idempotent.
	t.descPool.OnCommit = func(fld *atomic.Pointer[Node[K, V]], old, new *Node[K, V]) {
		if new.ver() == verPending {
			new.prev.Store(old)
			sched.Point(sched.PointVerStamp)
			new.snapVer.CompareAndSwap(^verPending, ^t.gver.Load())
		}
	}
	return t
}

// Entry exposes the sentinel entry point for policies and quiescent
// inspection.
func (t *Tree[K, V]) Entry() *Node[K, V] { return t.entry }

// ---------------------------------------------------------------------------
// Node lifecycle.

// freeList holds one epoch slot's freed nodes and cells, on a cache line of
// its own. Only the slot's holder touches it - the pinned operation building
// nodes, or the holder whose drain of the slot's retire list runs freeNode -
// so the slot's claim and release order every use.
type freeList[K, V any] struct {
	nodes []*Node[K, V]
	cells []*vcell.Cell[V]
	_     [epoch.CacheLine - 2*unsafe.Sizeof([]byte(nil))]byte
}

// freeCap bounds each stack; what is freed onto a full one is left to the GC.
const freeCap = 1024

// take pops the top off s, or allocates a T if s is empty.
func take[T any](s *[]*T) *T {
	if i := len(*s) - 1; i >= 0 {
		p := (*s)[i]
		*s = (*s)[:i]
		return p
	}
	return new(T)
}

// push puts p on s unless s is full.
func push[T any](s *[]*T, p *T) {
	if len(*s) < freeCap {
		*s = append(*s, p)
	}
}

// newNode returns a node with the given key, decoration and flags and
// nothing else set, from the free list of g's slot, or a new one when that
// list is empty: zeroed, by the allocator or by freeNode, so its children
// are nil and its tick is verPending. g must be the caller's pinned guard.
func (t *Tree[K, V]) newNode(g *epoch.Guard, k K, a uint32) *Node[K, V] {
	n := take(&t.free[g.Slot()].nodes)
	n.K = k
	n.rec.SetAux(a)
	return n
}

// LeafNode returns a leaf holding key and value, with the given decoration
// and a cell of its own, both from the free list of g's slot where it has
// them. g must be the caller's pinned guard.
func (t *Tree[K, V]) LeafNode(g *epoch.Guard, k K, v V, deco int64) *Node[K, V] {
	n := t.newNode(g, k, aux(deco, true, false))
	n.val = take(&t.free[g.Slot()].cells)
	n.val.Init(t.unboxed, v)
	return n
}

// InternalNode returns an internal node with the given routing key,
// decoration (in [0, MaxDeco]), sentinel flag and children. g must be the
// caller's pinned guard.
func (t *Tree[K, V]) InternalNode(g *epoch.Guard, k K, deco int64, inf bool, left, right *Node[K, V]) *Node[K, V] {
	n := t.newNode(g, k, aux(deco, false, inf))
	setChild(&n.left, left)
	setChild(&n.right, right)
	return n
}

// CopyNode returns a fresh copy of the node captured by lk, carrying the
// given decoration and the children recorded in lk's snapshot. It is the
// standard building block of rebalancing steps: a removed node reappears in
// the new subtree only as a copy. The copy ALIASES the source's value cell
// rather than capturing the value: an in-place overwrite racing with the
// copying SCX stays visible through the copy, whichever of the two commits
// first (see the in-place overwrite protocol on Insert). The copy takes a
// reference on the cell: the caller, pinned under g, reached the source in
// the tree, so the source cannot have been freed and still holds its own.
func (t *Tree[K, V]) CopyNode(g *epoch.Guard, lk llxscx.Linked[Node[K, V]], deco int64) *Node[K, V] {
	src := lk.Node()
	n := t.newNode(g, src.K, aux(deco, src.IsLeaf(), src.IsSentinel()))
	if !src.IsLeaf() {
		setChild(&n.left, lk.Child(0))
		setChild(&n.right, lk.Child(1))
	} else if c := src.val; c != nil {
		c.Retain()
		n.val = c
	}
	return n
}

// scx performs one SCX - the engine's own updates' and, through Step.Commit,
// the policies' rebalancing steps' - on the guard's descriptor and, on
// success, retires the removed nodes fin[:nf] under that guard: they are
// freed for reuse after a grace period. On failure the caller is responsible
// for freeing the fresh nodes it built (freeNode, at once: they were never
// published). Reading fields of a retired node afterwards is still safe
// inside the invoking operation's pinned region: the node cannot be recycled
// before the guard is released plus a grace period.
func (t *Tree[K, V]) scx(g *epoch.Guard, v *[llxscx.MaxV]llxscx.Linked[Node[K, V]], nv int, fin *[llxscx.MaxV]*Node[K, V], nf int, fld *atomic.Pointer[Node[K, V]], old, new *Node[K, V]) bool {
	if !llxscx.SCXP(g, t.descPool, v, nv, fin, nf, fld, old, new) {
		return false
	}
	for i := 0; i < nf; i++ {
		epoch.Retire(g, fin[i], t.freeNodeFn)
	}
	return true
}

// freeNode runs after a retired node's grace period (or immediately, for a
// never-published fresh node): no operation can reach n anymore. It drops
// the node's reference on its value cell, clears the node and puts it on the
// free list of g's slot, and the cell too if that reference was the last.
// g is the slot's holder: the operation that built n, or the one whose drain
// of g's retire list runs freeNode as n's epoch callback. The stores are
// plain: the grace period orders them after every access by another
// goroutine, as it does for the key. The cleared tick reads as verPending.
// The record's tag is left alone - tags never recur (internal/llxscx) - and
// newNode sets key and flags.
func (t *Tree[K, V]) freeNode(g *epoch.Guard, n *Node[K, V]) {
	if c := n.val; c != nil && c.Release() {
		push(&t.free[g.Slot()].cells, c)
	}
	n.val = nil
	llxscx.ReleaseRecord(&n.rec)
	var zeroK K
	n.K = zeroK
	n.left = atomic.Pointer[Node[K, V]]{}
	n.right = atomic.Pointer[Node[K, V]]{}
	n.snapVer = atomic.Uint64{}
	n.prev = atomic.Pointer[Node[K, V]]{}
	n.gen.Bump()
	push(&t.free[g.Slot()].nodes, n)
}

// DrainReclaim drains the epoch layer's retire lists, returning the number
// of objects still pending (process-wide). Meant for tests and quiescent
// shutdown; see epoch.Drain.
func (t *Tree[K, V]) DrainReclaim() int64 {
	return epoch.Drain()
}

// ---------------------------------------------------------------------------
// Searches.

// keyLess reports whether key is strictly smaller than n's key, treating
// sentinels as +infinity.
func keyLess[K cmp.Ordered, V any](key K, n *Node[K, V]) bool {
	return n.IsSentinel() || cmp.Less(key, n.K)
}

// isKey reports whether the leaf l holds exactly key.
func isKey[K cmp.Ordered, V any](key K, l *Node[K, V]) bool {
	return !l.IsSentinel() && cmp.Compare(key, l.K) == 0
}

// search returns the grandparent, parent and leaf on the search path for
// key, using plain reads (Figure 5 of the paper). gp is nil when the tree
// below the sentinels is a single leaf. It takes both the leaf test and the
// sentinel test from one read of each node's packed flags (a).
//
// At each internal node it loads both children and both children's flags
// before the comparison resolves, and picks the flags with an integer select
// (a CMOV), so both children's lines are requested as soon as the parent's
// line arrives: a mispredicted comparison restarts on a line already in
// flight. The pointer stays a branch. An if/else that assigns l and a
// together lets the compiler sink each flag load into its arm, which is the
// one-child loop again; TestInliningGuard's CMOV row catches that. Every
// internal node reachable under the pin has two non-nil children, and the
// sibling is reached through the same atomic child load as the chosen child,
// so the pin's grace period covers its flags word too. DESIGN.md ("The
// descent") has the measurements.
func (t *Tree[K, V]) search(key K) (gp, p, l *Node[K, V]) {
	p = t.entry
	l = t.entry.left.Load()
	for a := l.rec.Aux(); a&auxLeaf == 0; {
		gp, p = p, l
		lc, rc := l.left.Load(), l.right.Load()
		la, ra := lc.rec.Aux(), rc.rec.Aux()
		left := a&auxInf != 0 || cmp.Less(key, l.K)
		a = ra
		if left {
			a = la
		}
		l = rc
		if left {
			l = lc
		}
	}
	return gp, p, l
}

// ---------------------------------------------------------------------------
// Dictionary operations.

// Get returns the value associated with key, or the zero value and false if
// key is absent. It uses only plain reads and never blocks or retries.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	g := epoch.Pin()
	_, _, l := t.search(key)
	if isKey(key, l) {
		v := valueOf(l)
		epoch.Unpin(g)
		return v, true
	}
	epoch.Unpin(g)
	var zero V
	return zero, false
}

// Insert associates value with key, returning the previous value and true
// if key was present.
//
// When the key is absent the update follows the tree update template,
// hand-unrolled in tryInsert: one LLX on the leaf's parent, one on the leaf,
// and one SCX that replaces the leaf with a fresh internal node above two
// leaves (the paper's Insert1; the overwrite below is its Insert2).
//
// When the key is present the overwrite is performed IN PLACE, without an
// SCX and (for unboxed value types) without allocating: the leaf's value
// cell sits outside the LLX snapshot evidence, so no freezing is needed to
// publish into it. The protocol is:
//
//  1. the search reaches the leaf l holding key;
//  2. the cell's publish bracket is opened (vcell.BeginPublish - a counter
//     on the CELL, so the bracket follows the cell through every aliasing
//     copy of the leaf);
//  3. l's finalized flag is checked. If l is finalized the bracket is
//     closed WITHOUT publishing - the attempt failed, changed nothing, and
//     the operation re-searches. Otherwise the new value is published with
//     one atomic Swap (yielding the displaced value to return), the bracket
//     is closed, and the operation returns success.
//
// The overwrite linearizes at the Swap. The subtlety is an overwrite racing
// the SCX that finalizes l (a deletion of the key, or a leaf-replacing
// tryReplace): the finalizer must return the value the key held when it
// took effect, so it loads the cell after its SCX commits - and it must not
// miss a Swap ordered before that load, nor can a publisher be allowed to
// Swap after the load (a value nobody will ever observe, while the
// publisher reports success). The publish bracket closes both directions:
//
//   - after committing (which finalizes l), the finalizer DRAINS the cell's
//     bracket (vcell.DrainPublishers) before loading. A publisher that saw
//     l un-finalized at step 3 observed the flag before the finalizer's
//     commit, so its bracket was open before the drain began, so its Swap
//     is totally ordered before the finalizer's load: the publish is
//     visible in the finalizer's returned value, and reporting success is
//     correct even though the leaf is now dead.
//   - a publisher that saw l finalized never swaps at all, so there is
//     nothing to miss; it re-searches and the retry sees the world after
//     the finalizer (key absent, or a successor leaf with its own cell).
//
// The drain terminates: once l is finalized every new bracket fails step 3
// and closes immediately, so only the finitely many brackets already open
// are waited for, and a bracket is a handful of straight-line atomics (the
// chaos layer never parks or panics a worker inside one - the bracket's
// instrumentation points are excluded from those injections).
//
// The bracket lives on the cell, not the leaf, because cells alias: a
// rebalancing step or the deletion template's sibling promotion replaces a
// leaf with a copy sharing the SAME cell, and the finalizer of the COPY
// must drain publishers that entered through the original leaf (a publisher
// that saw the original un-finalized registered on the shared cell before
// the original's finalization, which precedes every SCX on the copy). Cell
// aliasing is also what makes the overwrite safe against those copying
// SCXs in the first place: whichever of the publish and the copying SCX
// commits first, the copy reads through the same cell, so the value cannot
// be lost. This is why the cell must stay aliased and must never be
// snapshotted into a fresh cell by a copy.
//
// Under epoch reclamation the whole operation runs inside ONE pinned
// region, so no leaf the operation reaches can be recycled (and its cell
// reset) before the operation returns. The guard is released by defer, so a
// panic unwinding out of an attempt — chaos injection in the tests, or any
// future bug — releases the epoch slot instead of wedging reclamation for
// the whole process. A holder that parks without unwinding is evicted by the
// retires of other operations once it has held its epoch for the stall
// bound (see internal/epoch).
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		_, p, l := t.search(key)
		if isKey(key, l) {
			// While a snapshot handle is live the in-place publish would
			// mutate a value the snapshot captured, so the overwrite
			// degrades to a leaf-replacement SCX (tryReplace) that leaves
			// the captured leaf frozen. The liveness check and the publish
			// share a publish window on the guard's slot: a capture raises
			// snapLive and then drains the windows, so a publish that did
			// not see it lands before the capture's first read (see
			// Snapshot). Slots are process-wide, so the window holds nothing
			// that can park or panic: the help a failed publish owes comes
			// after it closes.
			w := g.Window()
			w.Open()
			if t.snapLive.Load() != 0 {
				w.Close()
				if old, done := t.tryReplace(g, key, value, p, l); done {
					return old, true
				}
			} else {
				old, ok := tryPublish(l, value)
				w.Close()
				if ok {
					return old, true
				}
				// Help the SCX that finalized the leaf before retrying. LLX on
				// a marked record helps its in-progress descriptor to
				// completion, so the retry finds the replacement subtree
				// installed instead of spinning against a stalled finalizer.
				// Without this the retry loop makes no progress on the blocker
				// and the overwrite is not lock-free (a single parked deleter
				// could starve it forever).
				l.LLX()
			}
		} else if t.tryInsert(g, key, value, p, l) {
			var zero V
			return zero, false
		}
		// A failed attempt means a concurrent update won the SCX in this
		// neighbourhood (or the leaf was finalized under an overwrite); back
		// off (bounded, randomized, growing with the failure count) before
		// re-searching so heavy contention on a small key range does not
		// degenerate into a storm of wasted re-searches.
		fails++
		backoffWait(fails)
	}
}

// LoadOrStore returns the value already associated with key (with
// loaded=true) if key is present; otherwise it inserts value and returns it
// (with loaded=false). Unlike a Get-then-Insert pair, a LoadOrStore race
// between two goroutines guarantees exactly one of them stores, which makes
// it the right primitive for sharing per-key state (for example a counter)
// between concurrent writers.
func (t *Tree[K, V]) LoadOrStore(key K, value V) (actual V, loaded bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		_, p, l := t.search(key)
		if isKey(key, l) {
			// The key was present while l was on the search path; linearize
			// there, exactly as Get does.
			return l.val.Load(), true
		}
		if t.tryInsert(g, key, value, p, l) {
			return value, false
		}
		fails++
		backoffWait(fails)
	}
}

// tryPublish is one attempt of the in-place overwrite (see the protocol in
// Insert's comment): open the cell's publish bracket, check the leaf is not
// finalized, and publish with one Swap. A finalized leaf fails the attempt
// with nothing published; the caller helps the finalizer and re-searches.
// The bracket, and the caller's publish window around it, is straight-line
// and park-free - its instrumentation points are excluded from chaos
// panic/abandon injection - so a finalizer's DrainPublishers and a capture's
// DrainWindows always terminate.
func tryPublish[K, V any](l *Node[K, V], value V) (V, bool) {
	l.val.BeginPublish()
	sched.Point(sched.PointVCellRecheck)
	if l.Marked() {
		l.val.EndPublish()
		var zero V
		return zero, false
	}
	old := l.val.Swap(value)
	l.val.EndPublish()
	return old, true
}

// tryInsert is one attempt of the insertion template update (hand-unrolled,
// so an attempt stages its SCX evidence entirely on this frame): LLX the
// parent and the leaf, build the replacement subtree from the slot's free
// list with the decorations the policy assigns, and publish it with one SCX.
//
// When the policy leaves the old leaf's decoration as it is, the leaf itself
// becomes the fringe of the new subtree and nothing is finalized (R is empty,
// PC6), exactly as in the non-blocking BST of Ellen et al.: a reused node
// becomes the child of a fresh node, so no child field ever holds a pointer
// it held before. The leaf stays in V, so the SCX fails if a concurrent
// update froze it. When the policy gives it a new decoration (a chromatic
// leaf that is overweight must come out with weight one) the decoration is
// immutable data, so the leaf is finalized and a copy takes its place (PC9);
// the copy aliases the leaf's value cell, which keeps a racing in-place
// overwrite of its key visible through it.
func (t *Tree[K, V]) tryInsert(g *epoch.Guard, key K, value V, p, l *Node[K, V]) bool {
	lkP, st := p.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	fld := FieldOf(lkP, l)
	if fld == nil {
		return false
	}
	lkL, st := l.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	// The key is absent (the overwrite fast path already handled a present
	// key; l's key is immutable, so the check holds for this attempt).
	internalDeco, leafDeco, oldDeco := t.pol.InsertDecos(p, l)
	keyLeaf := t.LeafNode(g, key, value, leafDeco)
	oldLeaf, nf := l, 0
	if oldDeco != l.Deco() && !sched.Mutated(sched.ReuseRedecoratedLeaf) {
		oldLeaf, nf = t.CopyNode(g, lkL, oldDeco), 1
	}
	var repl *Node[K, V]
	if keyLess(key, l) {
		repl = t.InternalNode(g, l.K, internalDeco, l.IsSentinel(), keyLeaf, oldLeaf)
	} else {
		repl = t.InternalNode(g, key, internalDeco, false, oldLeaf, keyLeaf)
	}
	v := [llxscx.MaxV]llxscx.Linked[Node[K, V]]{lkP, lkL}
	fin := [llxscx.MaxV]*Node[K, V]{l}
	if !t.scx(g, &v, 2, &fin, nf, fld, l, repl) {
		t.freeNode(g, keyLeaf)
		if oldLeaf != l {
			t.freeNode(g, oldLeaf)
		}
		t.freeNode(g, repl)
		return false
	}
	if t.pol.CreatesViolation(key, p, l, repl) {
		t.cleanup(g, key)
	}
	return true
}

// tryReplace is one attempt of the snapshot-safe overwrite of a present key:
// instead of publishing into the (possibly captured) leaf's cell in place, it
// replaces the leaf with a fresh leaf of the same decoration owning a fresh
// cell, via an insertion-shaped SCX that finalizes the old leaf. Live
// snapshots resolve past the replacement through its prev link and keep
// reading the frozen old cell. No decoration changes, so no violation can be
// created. The displaced value is read from the old leaf's cell after the SCX
// commits, mirroring the deletion template's argument: the read happens after
// the leaf was finalized, so an in-place overwrite that linearized before
// this replacement is visible in the returned value.
func (t *Tree[K, V]) tryReplace(g *epoch.Guard, key K, value V, p, l *Node[K, V]) (V, bool) {
	var zero V
	lkP, st := p.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	fld := FieldOf(lkP, l)
	if fld == nil {
		return zero, false
	}
	lkL, st := l.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	repl := t.LeafNode(g, key, value, l.Deco())
	v := [llxscx.MaxV]llxscx.Linked[Node[K, V]]{lkP, lkL}
	fin := [llxscx.MaxV]*Node[K, V]{l}
	if !t.scx(g, &v, 2, &fin, 1, fld, l, repl) {
		t.freeNode(g, repl)
		return zero, false
	}
	// The SCX finalized l, so in-place publishers now fail their bracket
	// check; drain the brackets already open, then load - every publish that
	// will ever be visible is ordered before this read (see the overwrite
	// protocol in Insert's comment).
	l.val.DrainPublishers()
	return l.val.Load(), true
}

// Delete removes key, returning its value and true if it was present. The
// update performs LLXs on the grandparent, parent, leaf and sibling, and
// one SCX that swings the grandparent's child pointer to a copy of the
// sibling (Figure 6 of the paper). The guard is released by defer, for the
// panic-safety Insert describes.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	for fails := 0; ; {
		gp, p, l := t.search(key)
		if gp == nil || !isKey(key, l) {
			var zero V
			return zero, false
		}
		if v, ok := t.tryDelete(g, key, gp, p, l); ok {
			return v, true
		}
		fails++
		backoffWait(fails)
	}
}

// tryDelete is one attempt of the deletion template update (hand-unrolled):
// LLX the grandparent, parent, leaf and sibling, then one SCX swings
// the grandparent's child pointer to a copy of the sibling and finalizes the
// parent, leaf and sibling, which are then retired.
func (t *Tree[K, V]) tryDelete(g *epoch.Guard, key K, gp, p, l *Node[K, V]) (V, bool) {
	var zero V
	lkGP, st := gp.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	fld := FieldOf(lkGP, p)
	if fld == nil {
		return zero, false
	}
	lkP, st := p.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	lkL, st := l.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	s := SiblingOf(lkP, l)
	if s == nil {
		return zero, false
	}
	lkS, st := s.LLX()
	if st != llxscx.Snapshot {
		return zero, false
	}
	// The sibling is promoted into p's place with the decoration the policy
	// computes (a chromatic sibling absorbs p's weight, a height is the
	// sibling's own). It must be a fresh copy even when that is the decoration
	// s already carries: the SCX protocol's ABA-freedom rests on every value
	// stored into a child field being newly obtained (a stale helper retries
	// its update CAS unconditionally, and re-installing a pointer the field
	// once held would let that CAS resurrect a finalized subtree). Reuse is
	// only safe for nodes that become children of fresh nodes, as in
	// tryInsert.
	deco := t.pol.PromoteDeco(gp, p, s)
	if sched.Mutated(sched.KeepSiblingDeco) {
		deco = s.Deco()
	}
	repl := t.CopyNode(g, lkS, deco)
	// V and R are ordered by a breadth-first traversal (PC8): the parent's
	// children appear in left-to-right order, the order Step.RemovePair gives
	// the sibling pair of every rebalancing step.
	var v [llxscx.MaxV]llxscx.Linked[Node[K, V]]
	var fin [llxscx.MaxV]*Node[K, V]
	if lkP.Child(0) == l {
		v = [llxscx.MaxV]llxscx.Linked[Node[K, V]]{lkGP, lkP, lkL, lkS}
		fin = [llxscx.MaxV]*Node[K, V]{p, l, s}
	} else {
		v = [llxscx.MaxV]llxscx.Linked[Node[K, V]]{lkGP, lkP, lkS, lkL}
		fin = [llxscx.MaxV]*Node[K, V]{p, s, l}
	}
	if !t.scx(g, &v, 4, &fin, 3, fld, p, repl) {
		t.freeNode(g, repl)
		return zero, false
	}
	// The SCX committed, so l is finalized and in-place publishers now fail
	// their bracket check; drain the brackets already open, then load. Every
	// overwrite that linearized before this deletion (its bracket observed l
	// un-finalized) has its Swap ordered before this read and is visible in
	// the returned value; no overwrite can land after it (see the overwrite
	// protocol in Insert's comment).
	l.val.DrainPublishers()
	val := l.val.Load()
	if t.pol.CreatesViolation(key, gp, p, repl) {
		t.cleanup(g, key)
	}
	return val, true
}

// cleanup repeatedly searches for key from the entry point and asks the
// policy to perform one rebalancing step at the first violation on the path,
// handing it the three ancestors the walk just passed, and restarts from the
// entry point after every step, until it reaches a leaf without seeing a
// violation (Figure 5 of the paper). It runs under the invoking operation's
// pinned guard g.
//
// The chromatic steps keep every violation on the search path of the key
// whose update created it (property VIOL), so there cleanup returns with the
// caller's violation gone. A policy need not guarantee that: cleanup then
// restores balance on this key's path and leaves any violation it pushed
// elsewhere to later operations (that is the "relaxed" in relaxed AVL).
//
// cleanup and PathViolations descend with the one-child loop, not search's
// two-child one: in cleanup the two-child walk read 3.7 % slower on
// update-10k, and no workload faster (DESIGN.md, "The descent").
func (t *Tree[K, V]) cleanup(g *epoch.Guard, key K) {
	for {
		var ggp, gp *Node[K, V]
		p := t.entry
		n := t.entry.left.Load()
		for {
			if t.pol.Violation(p, n) {
				t.pol.Rebalance(g, ggp, gp, p, n)
				break // restart the search from the entry point
			}
			if n.IsLeaf() {
				return
			}
			ggp, gp, p = gp, p, n
			if keyLess(key, n) {
				n = n.left.Load()
			} else {
				n = n.right.Load()
			}
		}
	}
}

// PathViolations counts, with plain reads, the nodes on key's search path at
// which the policy reports a violation. It is meant for a policy's
// CreatesViolation, which runs inside the pinned update that has just walked
// that path. It descends with the one-child loop, as cleanup does (see
// there).
func (t *Tree[K, V]) PathViolations(key K) int {
	count := 0
	p := t.entry
	n := t.entry.left.Load()
	for {
		if t.pol.Violation(p, n) {
			count++
		}
		if n.IsLeaf() {
			return count
		}
		p = n
		if keyLess(key, n) {
			n = n.left.Load()
		} else {
			n = n.right.Load()
		}
	}
}

// The ordered queries below are implemented in snapshot.go; each wrapper
// pins the epoch for the duration of the query so that nodes reached by the
// traversal cannot be recycled underneath it. A scan, a Successor and a
// Predecessor take their cut after pinning, so the pin also keeps every node
// the cut's version chains reach.

// Successor returns the smallest key strictly greater than key, with its
// value; ok is false if no such key exists. It answers at one version of the
// tree, taken when it starts, and the value is one the key held during the
// call.
func (t *Tree[K, V]) Successor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = t.neighbor(0, true, key)
	epoch.Unpin(g)
	return k, v, ok
}

// Predecessor returns the largest key strictly smaller than key, with its
// value; ok is false if no such key exists. Like Successor it answers at one
// version of the tree.
func (t *Tree[K, V]) Predecessor(key K) (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = t.neighbor(1, true, key)
	epoch.Unpin(g)
	return k, v, ok
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited; if fn returns false the scan stops
// early. The keys are the range's content at one version of the tree, taken
// when the scan starts, however long the range (see scan in snapshot.go);
// each value is one its key held during the scan. Use Snapshot to read one
// cut more than once, or for values frozen at it. The whole scan runs under
// one pinned guard, released by defer if fn panics. If fn blocks past the
// epoch layer's stall bound, other operations' retires evict the scan's slot
// and drop retirees to the garbage collector until it returns.
func (t *Tree[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	return t.scan(true, lo, true, hi, fn)
}

// Ascend calls fn for every key in the dictionary in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. Like RangeScan it emits the keys of one version and runs under one
// pinned guard, released by defer.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) int {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	var none K
	return t.scan(false, none, false, none, fn)
}

// Min returns the smallest key and its value, or ok=false if empty.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = t.neighbor(0, false, k)
	epoch.Unpin(g)
	return k, v, ok
}

// Max returns the largest key and its value, or ok=false if empty. (Sentinel
// keys are treated as +infinity and are never returned.)
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	g := epoch.Pin()
	k, v, ok = t.neighbor(1, false, k)
	epoch.Unpin(g)
	return k, v, ok
}

// Size returns the number of keys stored. Quiescence only.
func (t *Tree[K, V]) Size() int {
	s := Snap[K, V]{entry: t.entry, ver: liveVer}
	return s.Ascend(func(K, V) bool { return true })
}

// Keys returns all keys in ascending order. Quiescence only.
func (t *Tree[K, V]) Keys() []K { return t.KeysAt(liveVer) }

// KeysAt returns, in ascending order, the keys of the tree's versioned cut at
// ver: the keys a snapshot or a live scan that took version ver reads. It is
// for checking a capture against its cut after the fact: quiescence only, and
// only while nothing retired since ver has been recycled (an epoch.SnapPin
// held from before the capture keeps it so).
func (t *Tree[K, V]) KeysAt(ver uint64) []K {
	var keys []K
	s := Snap[K, V]{entry: t.entry, ver: ver}
	s.Ascend(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Height returns the number of nodes on the longest path from the tree's
// root (below the sentinels) to a leaf. Quiescence only.
func (t *Tree[K, V]) Height() int { return height(t.root()) }

// root returns the root of the tree proper (the leftmost grandchild of the
// entry node), or nil when the dictionary is empty.
func (t *Tree[K, V]) root() *Node[K, V] {
	top := t.entry.left.Load()
	if top == nil || top.IsLeaf() {
		return nil
	}
	return top.left.Load()
}

// Root exposes the root of the tree proper for quiescent inspection by
// policies and tests; nil when the dictionary is empty.
func (t *Tree[K, V]) Root() *Node[K, V] { return t.root() }

func height[K, V any](n *Node[K, V]) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	l, r := height(n.left.Load()), height(n.right.Load())
	if l > r {
		return l + 1
	}
	return r + 1
}
