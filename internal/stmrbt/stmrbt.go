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
// type, ordered by cmp.Less, and New keeps the historical int64
// instantiation used by the benchmark registry.
package stmrbt

import (
	"cmp"

	"repro/internal/stm"
)

const (
	red   = false
	black = true
)

type node[K, V any] struct {
	k      *stm.Var[K]
	v      *stm.Var[V]
	colour *stm.Var[bool]
	left   *stm.Var[*node[K, V]]
	right  *stm.Var[*node[K, V]]
	parent *stm.Var[*node[K, V]]
}

func newNode[K, V any](k K, v V, parent *node[K, V]) *node[K, V] {
	return &node[K, V]{
		k:      stm.NewVar(k),
		v:      stm.NewVar(v),
		colour: stm.NewVar(red),
		left:   stm.NewVar[*node[K, V]](nil),
		right:  stm.NewVar[*node[K, V]](nil),
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

// New returns an empty transactional red-black tree with int64 keys and
// values, the instantiation the benchmark registry and the paper's figures
// use.
func New() *Tree[int64, int64] { return NewOrdered[int64, int64]() }

// IntTree is the historical int64 instantiation used by the benchmark
// registry.
type IntTree = Tree[int64, int64]

// Name identifies the data structure in benchmark reports.
func (t *Tree[K, V]) Name() string { return "RBSTM" }

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
			n = stm.Read(tx, n.left)
		case c > 0:
			n = stm.Read(tx, n.right)
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
				n = stm.Read(tx, n.left)
			case c > 0:
				n = stm.Read(tx, n.right)
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
			stm.Write(tx, parent.left, fresh)
		default:
			stm.Write(tx, parent.right, fresh)
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
func (t *Tree[K, V]) Successor(key K) (K, V, bool) {
	type result struct {
		k  K
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var best *node[K, V]
		n := stm.Read(tx, t.root)
		for n != nil {
			if k := stm.Read(tx, n.k); cmp.Less(key, k) {
				best = n
				n = stm.Read(tx, n.left)
			} else {
				n = stm.Read(tx, n.right)
			}
		}
		if best == nil {
			return result{}
		}
		return result{stm.Read(tx, best.k), stm.Read(tx, best.v), true}
	})
	return r.k, r.v, r.ok
}

// Predecessor returns the largest key strictly smaller than key.
func (t *Tree[K, V]) Predecessor(key K) (K, V, bool) {
	type result struct {
		k  K
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var best *node[K, V]
		n := stm.Read(tx, t.root)
		for n != nil {
			if k := stm.Read(tx, n.k); cmp.Less(k, key) {
				best = n
				n = stm.Read(tx, n.right)
			} else {
				n = stm.Read(tx, n.left)
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
	if stm.Read(tx, n.left) != nil && stm.Read(tx, n.right) != nil {
		s := stm.Read(tx, n.right)
		for stm.Read(tx, s.left) != nil {
			s = stm.Read(tx, s.left)
		}
		stm.Write(tx, n.k, stm.Read(tx, s.k))
		stm.Write(tx, n.v, stm.Read(tx, s.v))
		n = s
	}
	// n now has at most one child.
	child := stm.Read(tx, n.left)
	if child == nil {
		child = stm.Read(tx, n.right)
	}
	parent := stm.Read(tx, n.parent)
	if child != nil {
		stm.Write(tx, child.parent, parent)
		t.replaceChild(tx, parent, n, child)
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
			t.replaceChild(tx, parent, n, nil)
			stm.Write(tx, n.parent, nil)
		}
	}
}

func (t *Tree[K, V]) replaceChild(tx *stm.Txn, parent, old, new *node[K, V]) {
	switch {
	case parent == nil:
		stm.Write(tx, t.root, new)
	case stm.Read(tx, parent.left) == old:
		stm.Write(tx, parent.left, new)
	default:
		stm.Write(tx, parent.right, new)
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

func leftOf[K, V any](tx *stm.Txn, n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return stm.Read(tx, n.left)
}

func rightOf[K, V any](tx *stm.Txn, n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return stm.Read(tx, n.right)
}

func setColour[K, V any](tx *stm.Txn, n *node[K, V], c bool) {
	if n != nil {
		stm.Write(tx, n.colour, c)
	}
}

func (t *Tree[K, V]) rotateLeft(tx *stm.Txn, n *node[K, V]) {
	if n == nil {
		return
	}
	r := stm.Read(tx, n.right)
	stm.Write(tx, n.right, stm.Read(tx, r.left))
	if l := stm.Read(tx, r.left); l != nil {
		stm.Write(tx, l.parent, n)
	}
	p := stm.Read(tx, n.parent)
	stm.Write(tx, r.parent, p)
	switch {
	case p == nil:
		stm.Write(tx, t.root, r)
	case stm.Read(tx, p.left) == n:
		stm.Write(tx, p.left, r)
	default:
		stm.Write(tx, p.right, r)
	}
	stm.Write(tx, r.left, n)
	stm.Write(tx, n.parent, r)
}

func (t *Tree[K, V]) rotateRight(tx *stm.Txn, n *node[K, V]) {
	if n == nil {
		return
	}
	l := stm.Read(tx, n.left)
	stm.Write(tx, n.left, stm.Read(tx, l.right))
	if r := stm.Read(tx, l.right); r != nil {
		stm.Write(tx, r.parent, n)
	}
	p := stm.Read(tx, n.parent)
	stm.Write(tx, l.parent, p)
	switch {
	case p == nil:
		stm.Write(tx, t.root, l)
	case stm.Read(tx, p.right) == n:
		stm.Write(tx, p.right, l)
	default:
		stm.Write(tx, p.left, l)
	}
	stm.Write(tx, l.right, n)
	stm.Write(tx, n.parent, l)
}

func (t *Tree[K, V]) fixAfterInsert(tx *stm.Txn, x *node[K, V]) {
	setColour(tx, x, red)
	for x != nil && stm.Read(tx, t.root) != x && colourOf(tx, parentOf(tx, x)) == red {
		if parentOf(tx, x) == leftOf(tx, parentOf(tx, parentOf(tx, x))) {
			y := rightOf(tx, parentOf(tx, parentOf(tx, x)))
			if colourOf(tx, y) == red {
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, y, black)
				setColour(tx, parentOf(tx, parentOf(tx, x)), red)
				x = parentOf(tx, parentOf(tx, x))
			} else {
				if x == rightOf(tx, parentOf(tx, x)) {
					x = parentOf(tx, x)
					t.rotateLeft(tx, x)
				}
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, parentOf(tx, parentOf(tx, x)), red)
				t.rotateRight(tx, parentOf(tx, parentOf(tx, x)))
			}
		} else {
			y := leftOf(tx, parentOf(tx, parentOf(tx, x)))
			if colourOf(tx, y) == red {
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, y, black)
				setColour(tx, parentOf(tx, parentOf(tx, x)), red)
				x = parentOf(tx, parentOf(tx, x))
			} else {
				if x == leftOf(tx, parentOf(tx, x)) {
					x = parentOf(tx, x)
					t.rotateRight(tx, x)
				}
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, parentOf(tx, parentOf(tx, x)), red)
				t.rotateLeft(tx, parentOf(tx, parentOf(tx, x)))
			}
		}
	}
	setColour(tx, stm.Read(tx, t.root), black)
}

func (t *Tree[K, V]) fixAfterDelete(tx *stm.Txn, x *node[K, V]) {
	for stm.Read(tx, t.root) != x && colourOf(tx, x) == black {
		if x == leftOf(tx, parentOf(tx, x)) {
			sib := rightOf(tx, parentOf(tx, x))
			if colourOf(tx, sib) == red {
				setColour(tx, sib, black)
				setColour(tx, parentOf(tx, x), red)
				t.rotateLeft(tx, parentOf(tx, x))
				sib = rightOf(tx, parentOf(tx, x))
			}
			if colourOf(tx, leftOf(tx, sib)) == black && colourOf(tx, rightOf(tx, sib)) == black {
				setColour(tx, sib, red)
				x = parentOf(tx, x)
			} else {
				if colourOf(tx, rightOf(tx, sib)) == black {
					setColour(tx, leftOf(tx, sib), black)
					setColour(tx, sib, red)
					t.rotateRight(tx, sib)
					sib = rightOf(tx, parentOf(tx, x))
				}
				setColour(tx, sib, colourOf(tx, parentOf(tx, x)))
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, rightOf(tx, sib), black)
				t.rotateLeft(tx, parentOf(tx, x))
				x = stm.Read(tx, t.root)
			}
		} else {
			sib := leftOf(tx, parentOf(tx, x))
			if colourOf(tx, sib) == red {
				setColour(tx, sib, black)
				setColour(tx, parentOf(tx, x), red)
				t.rotateRight(tx, parentOf(tx, x))
				sib = leftOf(tx, parentOf(tx, x))
			}
			if colourOf(tx, rightOf(tx, sib)) == black && colourOf(tx, leftOf(tx, sib)) == black {
				setColour(tx, sib, red)
				x = parentOf(tx, x)
			} else {
				if colourOf(tx, leftOf(tx, sib)) == black {
					setColour(tx, rightOf(tx, sib), black)
					setColour(tx, sib, red)
					t.rotateLeft(tx, sib)
					sib = leftOf(tx, parentOf(tx, x))
				}
				setColour(tx, sib, colourOf(tx, parentOf(tx, x)))
				setColour(tx, parentOf(tx, x), black)
				setColour(tx, leftOf(tx, sib), black)
				t.rotateRight(tx, parentOf(tx, x))
				x = stm.Read(tx, t.root)
			}
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
				(colourOf(tx, stm.Read(tx, n.left)) == red || colourOf(tx, stm.Read(tx, n.right)) == red) {
				valid = false
				return 0
			}
			lh := check(stm.Read(tx, n.left), lo, &k)
			rh := check(stm.Read(tx, n.right), &k, hi)
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
			walk(stm.Read(tx, n.left))
			keys = append(keys, stm.Read(tx, n.k))
			walk(stm.Read(tx, n.right))
		}
		walk(stm.Read(tx, t.root))
		return keys
	})
}
