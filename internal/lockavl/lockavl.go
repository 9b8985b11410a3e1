// Package lockavl implements a fine-grained lock-based relaxed-balance AVL
// tree with optimistic, lock-free reads. It stands in for the lock-based
// relaxed AVL trees the paper compares against (Bronson et al.'s "AVL-B" and
// Drachsler et al.'s "AVL-D"): updates take a small number of per-node
// locks, deletions of nodes with two children are logical (the node becomes
// a routing node, as in a partially external tree), and rebalancing is
// relaxed — heights are brought back towards AVL shape by localized
// rotations after each update rather than being enforced globally.
//
// Reads traverse the tree without locks and validate against a global
// structure-modification stamp, so searches never block, but they may have
// to retry while rotations are in flight; under update-heavy workloads this
// is exactly the behaviour that lets the non-blocking chromatic tree pull
// ahead in the paper's Figure 8.
//
// The tree is generic over the key and value types and implements
// dict.OrderedMap[K, V]: NewOrdered builds a tree over any cmp.Ordered key
// type, ordered by cmp.Less, and New keeps the historical int64
// instantiation used by the benchmark registry.
package lockavl

import (
	"cmp"
	"sync"
	"sync/atomic"

	"repro/internal/vcell"
)

type node[K, V any] struct {
	key K

	mu sync.Mutex
	// value is the node's value cell, embedded so that overwriting a
	// present key's value stores no per-store box: the cell's
	// representation is selected once per tree at construction (word
	// storage for word-sized value types, a boxed pointer otherwise).
	value   vcell.Cell[V]
	present atomic.Bool // false for routing nodes (logically deleted)
	removed atomic.Bool // true once physically unlinked

	left, right atomic.Pointer[node[K, V]]
	parent      atomic.Pointer[node[K, V]]
	height      atomic.Int32
}

func (n *node[K, V]) child(right bool) *atomic.Pointer[node[K, V]] {
	if right {
		return &n.right
	}
	return &n.left
}

func (n *node[K, V]) val() V { return n.value.Load() }

func (n *node[K, V]) setVal(v V) { n.value.Store(v) }

func heightOf[K, V any](n *node[K, V]) int32 {
	if n == nil {
		return 0
	}
	return n.height.Load()
}

func (n *node[K, V]) fixHeight() {
	lh, rh := heightOf(n.left.Load()), heightOf(n.right.Load())
	if lh > rh {
		n.height.Store(lh + 1)
	} else {
		n.height.Store(rh + 1)
	}
}

func balanceOf[K, V any](n *node[K, V]) int32 {
	return heightOf(n.left.Load()) - heightOf(n.right.Load())
}

// Tree is a concurrent ordered dictionary backed by a lock-based relaxed
// AVL tree. It is safe for concurrent use. Use New or NewOrdered to create
// one.
type Tree[K cmp.Ordered, V any] struct {
	// rootHolder is a sentinel whose right child is the root of the tree; it
	// is never removed, which removes special cases for an empty tree and
	// for rotations at the root.
	rootHolder *node[K, V]
	// structMods counts completed structural modifications (rotations and
	// unlinks) and inFlight counts the ones currently in progress; together
	// they let optimistic readers detect that their traversal overlapped a
	// structural change and must retry (a seqlock that tolerates multiple
	// concurrent writers).
	structMods atomic.Uint64
	inFlight   atomic.Int64
	size       atomic.Int64

	// unboxed is the value-cell representation every node of this tree uses,
	// computed once at construction (see vcell.Unboxed): word storage for
	// word-sized value types, so an overwrite of a present key allocates
	// nothing, with the boxed atomic.Pointer fallback otherwise.
	unboxed bool
}

// beginStructMod marks the start of a structural modification (a rotation or
// an unlink). It must be paired with endStructMod.
func (t *Tree[K, V]) beginStructMod() { t.inFlight.Add(1) }

// endStructMod marks the end of a structural modification.
func (t *Tree[K, V]) endStructMod() {
	t.structMods.Add(1)
	t.inFlight.Add(-1)
}

// structuresStable reports whether no structural modification completed since
// stamp was taken and none is currently in flight; only then may the result
// of an optimistic traversal be trusted.
func (t *Tree[K, V]) structuresStable(stamp uint64) bool {
	return t.structMods.Load() == stamp && t.inFlight.Load() == 0
}

// NewOrdered returns an empty tree over a naturally ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *Tree[K, V] {
	unboxed := vcell.Unboxed[V]()
	holder := &node[K, V]{}
	var zv V
	holder.value.Init(unboxed, zv)
	holder.present.Store(false)
	return &Tree[K, V]{rootHolder: holder, unboxed: unboxed}
}

// New returns an empty tree with int64 keys and values, the instantiation
// the benchmark registry and the paper's figures use.
func New() *Tree[int64, int64] { return NewOrdered[int64, int64]() }

// IntTree is the historical int64 instantiation used by the benchmark
// registry.
type IntTree = Tree[int64, int64]

// Name identifies the data structure in benchmark reports.
func (t *Tree[K, V]) Name() string { return "LockAVL" }

// Size returns the number of keys stored. It is maintained with atomic
// counters and is exact at quiescence.
func (t *Tree[K, V]) Size() int { return int(t.size.Load()) }

// Get returns the value associated with key, or the zero value and false if
// absent. It never blocks: it traverses optimistically and retries only if a
// concurrent structural modification could have hidden the key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	for {
		stamp := t.structMods.Load()
		n := t.rootHolder.right.Load()
		for n != nil {
			switch c := cmp.Compare(key, n.key); {
			case c < 0:
				n = n.left.Load()
			case c > 0:
				n = n.right.Load()
			default:
				if n.present.Load() {
					return n.val(), true
				}
				n = nil
			}
		}
		// Key not found (or only a routing node found): the answer is
		// trustworthy only if no rotation or unlink overlapped the search.
		if t.structuresStable(stamp) {
			var zero V
			return zero, false
		}
	}
}

// Insert associates value with key, returning the previous value and true if
// key was present.
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	var zero V
	for {
		stamp := t.structMods.Load()
		parent, found := t.locate(key)
		if found != nil {
			found.mu.Lock()
			if found.removed.Load() {
				found.mu.Unlock()
				continue
			}
			if found.present.Load() {
				old := found.val()
				found.setVal(value)
				found.mu.Unlock()
				return old, true
			}
			// Reactivate a routing node left behind by a logical deletion.
			found.setVal(value)
			found.present.Store(true)
			found.mu.Unlock()
			t.size.Add(1)
			return zero, false
		}
		// Attach a fresh leaf under parent.
		parent.mu.Lock()
		if parent.removed.Load() {
			parent.mu.Unlock()
			continue
		}
		right := !cmp.Less(key, parent.key)
		if parent == t.rootHolder {
			right = true
		}
		slot := parent.child(right)
		if slot.Load() != nil {
			// Someone else attached a node here first; retry from the top.
			parent.mu.Unlock()
			continue
		}
		if !t.structuresStable(stamp) {
			// A rotation or unlink overlapped the optimistic search, so
			// parent may no longer be the correct attachment point for key.
			parent.mu.Unlock()
			continue
		}
		fresh := &node[K, V]{key: key}
		fresh.value.Init(t.unboxed, value)
		fresh.present.Store(true)
		fresh.height.Store(1)
		fresh.parent.Store(parent)
		slot.Store(fresh)
		parent.mu.Unlock()
		t.size.Add(1)
		t.rebalanceFrom(parent)
		return zero, false
	}
}

// Delete removes key, returning its value and true if it was present. Nodes
// with two children are deleted logically (they remain as routing nodes);
// nodes with at most one child are unlinked.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	var zero V
	for {
		_, found := t.locate(key)
		if found == nil {
			return zero, false
		}
		found.mu.Lock()
		if found.removed.Load() {
			found.mu.Unlock()
			continue
		}
		if !found.present.Load() {
			found.mu.Unlock()
			return zero, false
		}
		left, right := found.left.Load(), found.right.Load()
		if left != nil && right != nil {
			// Two children: logical deletion only.
			old := found.val()
			found.present.Store(false)
			found.mu.Unlock()
			t.size.Add(-1)
			return old, true
		}
		found.mu.Unlock()
		// At most one child: unlink under the parent's and node's locks.
		if old, ok, done := t.unlink(found); done {
			if ok {
				t.size.Add(-1)
			}
			return old, ok
		}
		// Unlinking raced with another structural change; retry.
	}
}

// locate performs an optimistic traversal and returns the node with the key
// (if any reachable node carries it) and otherwise the last node visited,
// which is the attachment point for an insertion.
func (t *Tree[K, V]) locate(key K) (parent *node[K, V], found *node[K, V]) {
	parent = t.rootHolder
	n := t.rootHolder.right.Load()
	for n != nil {
		switch c := cmp.Compare(key, n.key); {
		case c < 0:
			parent = n
			n = n.left.Load()
		case c > 0:
			parent = n
			n = n.right.Load()
		default:
			return parent, n
		}
	}
	return parent, nil
}

// unlink physically removes a node that has at most one child. It returns
// (value, present, done): done is false if validation failed and the caller
// must retry.
func (t *Tree[K, V]) unlink(n *node[K, V]) (V, bool, bool) {
	var zero V
	parent := n.parent.Load()
	if parent == nil {
		return zero, false, false
	}
	parent.mu.Lock()
	// The parent was read optimistically, so a concurrent rotation may have
	// inverted the parent/child relationship; acquiring the second lock with
	// TryLock (and retrying from scratch on failure) keeps the lock order
	// free of cycles.
	if !n.mu.TryLock() {
		parent.mu.Unlock()
		return zero, false, false
	}
	defer n.mu.Unlock()
	defer parent.mu.Unlock()

	if parent.removed.Load() || n.removed.Load() || n.parent.Load() != parent {
		return zero, false, false
	}
	if !n.present.Load() {
		return zero, false, true
	}
	left, right := n.left.Load(), n.right.Load()
	if left != nil && right != nil {
		// Gained a second child since we last looked: fall back to logical
		// deletion.
		old := n.val()
		n.present.Store(false)
		return old, true, true
	}
	child := left
	if child == nil {
		child = right
	}
	var slot *atomic.Pointer[node[K, V]]
	switch {
	case parent.left.Load() == n:
		slot = &parent.left
	case parent.right.Load() == n:
		slot = &parent.right
	default:
		return zero, false, false
	}
	old := n.val()
	t.beginStructMod()
	if child != nil {
		child.parent.Store(parent)
	}
	slot.Store(child)
	n.present.Store(false)
	n.removed.Store(true)
	t.endStructMod()
	t.rebalanceFromLocked(parent)
	return old, true, true
}

// rebalanceFrom walks from n towards the root, refreshing heights and
// applying single or double rotations wherever the relaxed AVL condition is
// violated by two or more.
func (t *Tree[K, V]) rebalanceFrom(n *node[K, V]) {
	for n != nil && n != t.rootHolder {
		t.rebalanceNode(n)
		n = n.parent.Load()
	}
}

// rebalanceFromLocked is like rebalanceFrom but must be called while the
// caller already holds locks on nodes at or below n's parent; it therefore
// defers the walk to after those locks are released by only fixing heights
// here. (The next update passing through will complete any remaining
// rotations — this laziness is precisely the "relaxed" in relaxed balance.)
func (t *Tree[K, V]) rebalanceFromLocked(n *node[K, V]) {
	for m := n; m != nil && m != t.rootHolder; m = m.parent.Load() {
		m.fixHeight()
	}
}

// rebalanceNode locks n's parent, n and the relevant child, re-validates the
// links and performs a rotation if n is unbalanced.
func (t *Tree[K, V]) rebalanceNode(n *node[K, V]) {
	parent := n.parent.Load()
	if parent == nil {
		return
	}
	parent.mu.Lock()
	if !n.mu.TryLock() {
		// Rebalancing is best-effort: if the locks cannot be acquired
		// without risking a cycle, skip this node; a later update passing
		// through will fix any remaining imbalance.
		parent.mu.Unlock()
		return
	}
	if parent.removed.Load() || n.removed.Load() || n.parent.Load() != parent ||
		(parent.left.Load() != n && parent.right.Load() != n) {
		n.mu.Unlock()
		parent.mu.Unlock()
		return
	}
	n.fixHeight()
	balance := balanceOf(n)
	switch {
	case balance > 1:
		l := n.left.Load()
		if l != nil && l.mu.TryLock() {
			if balanceOf(l) < 0 {
				// Left-right case: rotate the child left first.
				t.rotate(l, false)
			}
			l.mu.Unlock()
			t.rotate(n, true)
		}
	case balance < -1:
		r := n.right.Load()
		if r != nil && r.mu.TryLock() {
			if balanceOf(r) > 0 {
				// Right-left case: rotate the child right first.
				t.rotate(r, true)
			}
			r.mu.Unlock()
			t.rotate(n, false)
		}
	}
	n.mu.Unlock()
	parent.mu.Unlock()
}

// rotate performs a right rotation (rotateRight == true) or left rotation at
// n. The caller must hold the locks of n's parent and of n.
func (t *Tree[K, V]) rotate(n *node[K, V], rotateRight bool) {
	parent := n.parent.Load()
	if parent == nil {
		return
	}
	var pivot *node[K, V]
	if rotateRight {
		pivot = n.left.Load()
	} else {
		pivot = n.right.Load()
	}
	if pivot == nil {
		return
	}
	if !pivot.mu.TryLock() {
		return
	}
	defer pivot.mu.Unlock()
	if pivot.removed.Load() || pivot.parent.Load() != n {
		return
	}
	// Identify the parent's slot before touching anything, so a mismatch
	// (which cannot occur while the caller holds the parent's lock, but is
	// checked defensively) leaves the tree untouched.
	var slot *atomic.Pointer[node[K, V]]
	switch {
	case parent.left.Load() == n:
		slot = &parent.left
	case parent.right.Load() == n:
		slot = &parent.right
	default:
		return
	}
	t.beginStructMod()
	var moved *node[K, V]
	if rotateRight {
		moved = pivot.right.Load()
		n.left.Store(moved)
		pivot.right.Store(n)
	} else {
		moved = pivot.left.Load()
		n.right.Store(moved)
		pivot.left.Store(n)
	}
	if moved != nil {
		moved.parent.Store(n)
	}
	slot.Store(pivot)
	pivot.parent.Store(parent)
	n.parent.Store(pivot)
	n.fixHeight()
	pivot.fixHeight()
	t.endStructMod()
}

// Successor returns the smallest key strictly greater than key (only
// considering present nodes). Routing nodes (logically deleted keys) are
// stepped over by repeating the structural search from their key.
func (t *Tree[K, V]) Successor(key K) (K, V, bool) {
	probe := key
	for {
		node, ok := t.structuralSuccessor(probe)
		if !ok {
			var zk K
			var zv V
			return zk, zv, false
		}
		if node.present.Load() {
			return node.key, node.val(), true
		}
		probe = node.key
	}
}

// structuralSuccessor finds the node (present or routing) with the smallest
// key strictly greater than key, validating against the structure stamp.
func (t *Tree[K, V]) structuralSuccessor(key K) (*node[K, V], bool) {
	for {
		stamp := t.structMods.Load()
		var best *node[K, V]
		n := t.rootHolder.right.Load()
		for n != nil {
			if cmp.Less(key, n.key) {
				best = n
				n = n.left.Load()
			} else {
				n = n.right.Load()
			}
		}
		if t.structuresStable(stamp) {
			return best, best != nil
		}
	}
}

// Predecessor returns the largest key strictly smaller than key (only
// considering present nodes).
func (t *Tree[K, V]) Predecessor(key K) (K, V, bool) {
	probe := key
	for {
		node, ok := t.structuralPredecessor(probe)
		if !ok {
			var zk K
			var zv V
			return zk, zv, false
		}
		if node.present.Load() {
			return node.key, node.val(), true
		}
		probe = node.key
	}
}

// structuralPredecessor finds the node (present or routing) with the largest
// key strictly smaller than key, validating against the structure stamp.
func (t *Tree[K, V]) structuralPredecessor(key K) (*node[K, V], bool) {
	for {
		stamp := t.structMods.Load()
		var best *node[K, V]
		n := t.rootHolder.right.Load()
		for n != nil {
			if cmp.Less(n.key, key) {
				best = n
				n = n.right.Load()
			} else {
				n = n.left.Load()
			}
		}
		if t.structuresStable(stamp) {
			return best, best != nil
		}
	}
}

// Keys returns all present keys in ascending order. Quiescence only.
func (t *Tree[K, V]) Keys() []K {
	var keys []K
	var walk func(n *node[K, V])
	walk = func(n *node[K, V]) {
		if n == nil {
			return
		}
		walk(n.left.Load())
		if n.present.Load() {
			keys = append(keys, n.key)
		}
		walk(n.right.Load())
	}
	walk(t.rootHolder.right.Load())
	return keys
}

// Height returns the height of the tree (including routing nodes).
// Quiescence only.
func (t *Tree[K, V]) Height() int {
	var h func(n *node[K, V]) int
	h = func(n *node[K, V]) int {
		if n == nil {
			return 0
		}
		l, r := h(n.left.Load()), h(n.right.Load())
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.rootHolder.right.Load())
}

// CheckInvariants verifies the BST order over all reachable nodes and the
// parent-pointer consistency. Quiescence only.
func (t *Tree[K, V]) CheckInvariants() error {
	root := t.rootHolder.right.Load()
	if root == nil {
		return nil
	}
	var check func(n *node[K, V], lo, hi *K) error
	check = func(n *node[K, V], lo, hi *K) error {
		if n == nil {
			return nil
		}
		if lo != nil && !cmp.Less(*lo, n.key) {
			return errOrder
		}
		if hi != nil && !cmp.Less(n.key, *hi) {
			return errOrder
		}
		if n.removed.Load() {
			return errRemovedReachable
		}
		if l := n.left.Load(); l != nil {
			if l.parent.Load() != n {
				return errParent
			}
			if err := check(l, lo, &n.key); err != nil {
				return err
			}
		}
		if r := n.right.Load(); r != nil {
			if r.parent.Load() != n {
				return errParent
			}
			if err := check(r, &n.key, hi); err != nil {
				return err
			}
		}
		return nil
	}
	return check(root, nil, nil)
}

type avlError string

func (e avlError) Error() string { return string(e) }

const (
	errOrder            = avlError("lockavl: keys out of order")
	errParent           = avlError("lockavl: inconsistent parent pointer")
	errRemovedReachable = avlError("lockavl: removed node still reachable")
)
