// Package stmrbt implements a red-black tree on top of the software
// transactional memory of internal/stm: every Get, Insert and Delete runs as
// one coarse transaction that may touch an entire root-to-leaf path (plus
// rebalancing), exactly like the STM-based red-black tree ("RBSTM") used as
// a baseline in the paper's evaluation. The point of this baseline is the
// programming model, not the performance: conflicts between large
// transactions limit concurrency severely, which is what Figure 8 shows.
//
// The tree is generic over the key and value types and implements
// dict.OrderedMap[K, V]: NewOrdered builds a tree over any cmp.Ordered key
// type, ordered by cmp.Less.
package stmrbt

import (
	"cmp"

	"repro/internal/stm"
)

const (
	red   = false
	black = true
)

// A node's children are indexed by side: child[0] is the left child and
// child[1] the right. Every mirrored pair of operations - the two rotations,
// the two halves of each fixup, Successor and Predecessor - is written once
// over a side d, with 1-d the other side.
type node[K, V any] struct {
	k      *stm.Var[K]
	v      *stm.Var[V]
	colour *stm.Var[bool]
	child  [2]*stm.Var[*node[K, V]]
	parent *stm.Var[*node[K, V]]
}

func newNode[K, V any](k K, v V, parent *node[K, V]) *node[K, V] {
	return &node[K, V]{
		k:      stm.NewVar(k),
		v:      stm.NewVar(v),
		colour: stm.NewVar(red),
		child: [2]*stm.Var[*node[K, V]]{
			stm.NewVar[*node[K, V]](nil),
			stm.NewVar[*node[K, V]](nil),
		},
		parent: stm.NewVar(parent),
	}
}

// Tree is a transactional red-black tree implementing an ordered dictionary.
// It is safe for concurrent use; every operation executes as a single STM
// transaction. Use New or NewOrdered to create one.
type Tree[K cmp.Ordered, V any] struct {
	root *stm.Var[*node[K, V]]
	size *stm.Var[int64]
}

// NewOrdered returns an empty transactional red-black tree over a naturally
// ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *Tree[K, V] {
	return &Tree[K, V]{
		root: stm.NewVar[*node[K, V]](nil),
		size: stm.NewVar[int64](0),
	}
}

// Size returns the number of keys stored.
func (t *Tree[K, V]) Size() int {
	return int(stm.Atomically(func(tx *stm.Txn) int64 { return stm.Read(tx, t.size) }))
}

// lookup is the transactional search: it returns the node holding key, or
// nil, all reads within tx.
func (t *Tree[K, V]) lookup(tx *stm.Txn, key K) *node[K, V] {
	n := stm.Read(tx, t.root)
	for n != nil {
		switch c := cmp.Compare(key, stm.Read(tx, n.k)); {
		case c < 0:
			n = stm.Read(tx, n.child[0])
		case c > 0:
			n = stm.Read(tx, n.child[1])
		default:
			return n
		}
	}
	return nil
}

// Get returns the value associated with key, or the zero value and false if
// absent.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	type result struct {
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		if n := t.lookup(tx, key); n != nil {
			return result{stm.Read(tx, n.v), true}
		}
		return result{}
	})
	return r.v, r.ok
}

// Insert associates value with key, returning the previous value and true if
// key was present.
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	type result struct {
		old     V
		existed bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var parent *node[K, V]
		n := stm.Read(tx, t.root)
		for n != nil {
			parent = n
			switch c := cmp.Compare(key, stm.Read(tx, n.k)); {
			case c < 0:
				n = stm.Read(tx, n.child[0])
			case c > 0:
				n = stm.Read(tx, n.child[1])
			default:
				old := stm.Read(tx, n.v)
				stm.Write(tx, n.v, value)
				return result{old, true}
			}
		}
		fresh := newNode(key, value, parent)
		switch {
		case parent == nil:
			stm.Write(tx, t.root, fresh)
		case cmp.Less(key, stm.Read(tx, parent.k)):
			stm.Write(tx, parent.child[0], fresh)
		default:
			stm.Write(tx, parent.child[1], fresh)
		}
		stm.Write(tx, t.size, stm.Read(tx, t.size)+1)
		t.fixAfterInsert(tx, fresh)
		return result{}
	})
	return r.old, r.existed
}

// Delete removes key, returning its value and true if it was present.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	type result struct {
		old     V
		existed bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		n := t.lookup(tx, key)
		if n == nil {
			return result{}
		}
		old := stm.Read(tx, n.v)
		stm.Write(tx, t.size, stm.Read(tx, t.size)-1)
		t.deleteNode(tx, n)
		return result{old, true}
	})
	return r.old, r.existed
}

// Successor returns the smallest key strictly greater than key.
func (t *Tree[K, V]) Successor(key K) (K, V, bool) { return t.neighbor(1, key) }

// Predecessor returns the largest key strictly smaller than key.
func (t *Tree[K, V]) Predecessor(key K) (K, V, bool) { return t.neighbor(0, key) }

// neighbor returns the key nearest to key strictly on side d of it, below it
// for d = 0 and above it for d = 1, in one transaction.
func (t *Tree[K, V]) neighbor(d int, key K) (K, V, bool) {
	type result struct {
		k  K
		v  V
		ok bool
	}
	// dir is what cmp.Compare answers for a key on side d of key.
	dir := 2*d - 1
	r := stm.Atomically(func(tx *stm.Txn) result {
		var best *node[K, V]
		n := stm.Read(tx, t.root)
		for n != nil {
			if k := stm.Read(tx, n.k); cmp.Compare(k, key) == dir {
				best = n
				n = stm.Read(tx, n.child[1-d])
			} else {
				n = stm.Read(tx, n.child[d])
			}
		}
		if best == nil {
			return result{}
		}
		return result{stm.Read(tx, best.k), stm.Read(tx, best.v), true}
	})
	return r.k, r.v, r.ok
}

// --- transactional red-black machinery -----------------------------------

// deleteNode removes n from the tree, handling the two-children case the way
// java.util.TreeMap does: the successor's key and value are copied into n
// and the successor node is unlinked instead.
func (t *Tree[K, V]) deleteNode(tx *stm.Txn, n *node[K, V]) {
	if stm.Read(tx, n.child[0]) != nil && stm.Read(tx, n.child[1]) != nil {
		s := stm.Read(tx, n.child[1])
		for stm.Read(tx, s.child[0]) != nil {
			s = stm.Read(tx, s.child[0])
		}
		stm.Write(tx, n.k, stm.Read(tx, s.k))
		stm.Write(tx, n.v, stm.Read(tx, s.v))
		n = s
	}
	// n now has at most one child.
	child := stm.Read(tx, n.child[0])
	if child == nil {
		child = stm.Read(tx, n.child[1])
	}
	parent := stm.Read(tx, n.parent)
	if child != nil {
		stm.Write(tx, child.parent, parent)
		t.replaceChild(tx, parent, n, child, 0)
		if stm.Read(tx, n.colour) == black {
			t.fixAfterDelete(tx, child)
		}
	} else if parent == nil {
		stm.Write(tx, t.root, nil)
	} else {
		if stm.Read(tx, n.colour) == black {
			t.fixAfterDelete(tx, n)
		}
		parent = stm.Read(tx, n.parent)
		if parent != nil {
			t.replaceChild(tx, parent, n, nil, 0)
			stm.Write(tx, n.parent, nil)
		}
	}
}

// replaceChild puts new in the child slot of parent that holds old, or at
// the root if parent is nil. It reads parent's child on side d first, the
// side a rotation moves old to, and takes the other slot if d's does not
// hold old.
func (t *Tree[K, V]) replaceChild(tx *stm.Txn, parent, old, new *node[K, V], d int) {
	switch {
	case parent == nil:
		stm.Write(tx, t.root, new)
	case stm.Read(tx, parent.child[d]) == old:
		stm.Write(tx, parent.child[d], new)
	default:
		stm.Write(tx, parent.child[1-d], new)
	}
}

func colourOf[K, V any](tx *stm.Txn, n *node[K, V]) bool {
	if n == nil {
		return black
	}
	return stm.Read(tx, n.colour)
}

func parentOf[K, V any](tx *stm.Txn, n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return stm.Read(tx, n.parent)
}

func childOf[K, V any](tx *stm.Txn, n *node[K, V], d int) *node[K, V] {
	if n == nil {
		return nil
	}
	return stm.Read(tx, n.child[d])
}

func setColour[K, V any](tx *stm.Txn, n *node[K, V], c bool) {
	if n != nil {
		stm.Write(tx, n.colour, c)
	}
}

// rotate moves n down to side d and lifts its child on the other side, the
// pivot, into its place: rotate(n, 0) is a left rotation, rotate(n, 1) a
// right one.
func (t *Tree[K, V]) rotate(tx *stm.Txn, n *node[K, V], d int) {
	if n == nil {
		return
	}
	pivot := stm.Read(tx, n.child[1-d])
	stm.Write(tx, n.child[1-d], stm.Read(tx, pivot.child[d]))
	if c := stm.Read(tx, pivot.child[d]); c != nil {
		stm.Write(tx, c.parent, n)
	}
	p := stm.Read(tx, n.parent)
	stm.Write(tx, pivot.parent, p)
	t.replaceChild(tx, p, n, pivot, d)
	stm.Write(tx, pivot.child[d], n)
	stm.Write(tx, n.parent, pivot)
}

// fixAfterInsert restores the red-black conditions above the fresh red node
// x. Each pass is keyed on the side d on which x's parent hangs below x's
// grandparent; y is the uncle, on the other side.
func (t *Tree[K, V]) fixAfterInsert(tx *stm.Txn, x *node[K, V]) {
	setColour(tx, x, red)
	for x != nil && stm.Read(tx, t.root) != x && colourOf(tx, parentOf(tx, x)) == red {
		d := 1
		if parentOf(tx, x) == childOf(tx, parentOf(tx, parentOf(tx, x)), 0) {
			d = 0
		}
		y := childOf(tx, parentOf(tx, parentOf(tx, x)), 1-d)
		if colourOf(tx, y) == red {
			setColour(tx, parentOf(tx, x), black)
			setColour(tx, y, black)
			setColour(tx, parentOf(tx, parentOf(tx, x)), red)
			x = parentOf(tx, parentOf(tx, x))
		} else {
			if x == childOf(tx, parentOf(tx, x), 1-d) {
				x = parentOf(tx, x)
				t.rotate(tx, x, d)
			}
			setColour(tx, parentOf(tx, x), black)
			setColour(tx, parentOf(tx, parentOf(tx, x)), red)
			t.rotate(tx, parentOf(tx, parentOf(tx, x)), 1-d)
		}
	}
	setColour(tx, stm.Read(tx, t.root), black)
}

// fixAfterDelete restores the red-black conditions after a black node was
// removed at x. Each pass is keyed on the side d on which x hangs below its
// parent; sib is x's sibling, on the other side.
func (t *Tree[K, V]) fixAfterDelete(tx *stm.Txn, x *node[K, V]) {
	for stm.Read(tx, t.root) != x && colourOf(tx, x) == black {
		d := 1
		if x == childOf(tx, parentOf(tx, x), 0) {
			d = 0
		}
		sib := childOf(tx, parentOf(tx, x), 1-d)
		if colourOf(tx, sib) == red {
			setColour(tx, sib, black)
			setColour(tx, parentOf(tx, x), red)
			t.rotate(tx, parentOf(tx, x), d)
			sib = childOf(tx, parentOf(tx, x), 1-d)
		}
		if colourOf(tx, childOf(tx, sib, d)) == black && colourOf(tx, childOf(tx, sib, 1-d)) == black {
			setColour(tx, sib, red)
			x = parentOf(tx, x)
		} else {
			if colourOf(tx, childOf(tx, sib, 1-d)) == black {
				setColour(tx, childOf(tx, sib, d), black)
				setColour(tx, sib, red)
				t.rotate(tx, sib, 1-d)
				sib = childOf(tx, parentOf(tx, x), 1-d)
			}
			setColour(tx, sib, colourOf(tx, parentOf(tx, x)))
			setColour(tx, parentOf(tx, x), black)
			setColour(tx, childOf(tx, sib, 1-d), black)
			t.rotate(tx, parentOf(tx, x), d)
			x = stm.Read(tx, t.root)
		}
	}
	setColour(tx, x, black)
}

// CheckInvariants verifies the red-black properties and the BST order. It
// runs in one transaction and is intended for tests at quiescence.
func (t *Tree[K, V]) CheckInvariants() error {
	ok := stm.Atomically(func(tx *stm.Txn) bool {
		root := stm.Read(tx, t.root)
		if root == nil {
			return true
		}
		if stm.Read(tx, root.colour) != black {
			return false
		}
		valid := true
		var check func(n *node[K, V], lo, hi *K) int
		check = func(n *node[K, V], lo, hi *K) int {
			if n == nil || !valid {
				return 1
			}
			k := stm.Read(tx, n.k)
			if (lo != nil && !cmp.Less(*lo, k)) || (hi != nil && !cmp.Less(k, *hi)) {
				valid = false
				return 0
			}
			if stm.Read(tx, n.colour) == red &&
				(colourOf(tx, stm.Read(tx, n.child[0])) == red || colourOf(tx, stm.Read(tx, n.child[1])) == red) {
				valid = false
				return 0
			}
			lh := check(stm.Read(tx, n.child[0]), lo, &k)
			rh := check(stm.Read(tx, n.child[1]), &k, hi)
			if lh != rh {
				valid = false
				return 0
			}
			if stm.Read(tx, n.colour) == black {
				lh++
			}
			return lh
		}
		check(root, nil, nil)
		return valid
	})
	if !ok {
		return errInvariant
	}
	return nil
}

type rbError string

func (e rbError) Error() string { return string(e) }

const errInvariant = rbError("stmrbt: red-black invariant violated")

// Keys returns all keys in ascending order, read in one transaction.
func (t *Tree[K, V]) Keys() []K {
	return stm.Atomically(func(tx *stm.Txn) []K {
		var keys []K
		var walk func(n *node[K, V])
		walk = func(n *node[K, V]) {
			if n == nil {
				return
			}
			walk(stm.Read(tx, n.child[0]))
			keys = append(keys, stm.Read(tx, n.k))
			walk(stm.Read(tx, n.child[1]))
		}
		walk(stm.Read(tx, t.root))
		return keys
	})
}
