// Package seqrbt implements a classic sequential red-black tree, analogous
// to java.util.TreeMap, which the paper uses in two roles: as the reference
// point for single-threaded overhead (Figure 9) and, wrapped in a single
// global mutex, as the coarse-grained "RBGlobal" baseline of Figure 8.
//
// Tree itself is NOT safe for concurrent use; Global (in this package) wraps
// it with a mutex to obtain the RBGlobal baseline.
//
// Both are generic over the key and value types and implement
// dict.OrderedMap[K, V]: NewOrdered builds a tree over any cmp.Ordered key
// type, ordered by cmp.Less, and New is the int64 instantiation the
// repository benchmark uses.
package seqrbt

import "cmp"

const (
	red   = false
	black = true
)

// A node's children are indexed by side: child[0] is the left child and
// child[1] the right. Every mirrored pair of operations - the two rotations,
// the two halves of each fixup, Successor and Predecessor - is written once
// over a side d, with 1-d the other side.
type node[K, V any] struct {
	k      K
	v      V
	colour bool
	child  [2]*node[K, V]
	parent *node[K, V]
}

// Tree is a sequential red-black tree. It is not safe for concurrent use.
// Use New or NewOrdered to create one.
type Tree[K cmp.Ordered, V any] struct {
	root *node[K, V]
	size int
}

// NewOrdered returns an empty sequential red-black tree over a naturally
// ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *Tree[K, V] { return &Tree[K, V]{} }

// New returns an empty sequential red-black tree with int64 keys and values,
// the instantiation the repository benchmark uses.
func New() *Tree[int64, int64] { return NewOrdered[int64, int64]() }

// Size returns the number of keys stored.
func (t *Tree[K, V]) Size() int { return t.size }

// lookup returns the node holding key, or nil; Get and Delete use it.
func (t *Tree[K, V]) lookup(key K) *node[K, V] {
	n := t.root
	for n != nil {
		switch c := cmp.Compare(key, n.k); {
		case c < 0:
			n = n.child[0]
		case c > 0:
			n = n.child[1]
		default:
			return n
		}
	}
	return nil
}

// Get returns the value associated with key, or the zero value and false if
// absent.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	if n := t.lookup(key); n != nil {
		return n.v, true
	}
	var zero V
	return zero, false
}

// Insert associates value with key. It returns the previous value and true
// if key was already present.
func (t *Tree[K, V]) Insert(key K, value V) (V, bool) {
	var parent *node[K, V]
	n := t.root
	for n != nil {
		parent = n
		switch c := cmp.Compare(key, n.k); {
		case c < 0:
			n = n.child[0]
		case c > 0:
			n = n.child[1]
		default:
			old := n.v
			n.v = value
			return old, true
		}
	}
	fresh := &node[K, V]{k: key, v: value, colour: red, parent: parent}
	switch {
	case parent == nil:
		t.root = fresh
	case cmp.Less(key, parent.k):
		parent.child[0] = fresh
	default:
		parent.child[1] = fresh
	}
	t.size++
	t.fixAfterInsert(fresh)
	var zero V
	return zero, false
}

// Delete removes key, returning its value and true if it was present.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	n := t.lookup(key)
	if n == nil {
		var zero V
		return zero, false
	}
	old := n.v
	t.size--

	// If n has two children, replace its contents with its successor's and
	// delete the successor instead.
	if n.child[0] != nil && n.child[1] != nil {
		s := n.child[1]
		for s.child[0] != nil {
			s = s.child[0]
		}
		n.k, n.v = s.k, s.v
		n = s
	}
	// n now has at most one child.
	child := n.child[0]
	if child == nil {
		child = n.child[1]
	}
	if child != nil {
		child.parent = n.parent
		t.replace(n, child)
		if n.colour == black {
			t.fixAfterDelete(child)
		}
	} else if n.parent == nil {
		t.root = nil
	} else {
		if n.colour == black {
			t.fixAfterDelete(n)
		}
		if n.parent != nil {
			t.replace(n, nil)
			n.parent = nil
		}
	}
	return old, true
}

// Successor returns the smallest key strictly greater than key.
func (t *Tree[K, V]) Successor(key K) (K, V, bool) { return t.neighbor(1, key) }

// Predecessor returns the largest key strictly smaller than key.
func (t *Tree[K, V]) Predecessor(key K) (K, V, bool) { return t.neighbor(0, key) }

// neighbor returns the key nearest to key strictly on side d of it: below it
// for d = 0, above it for d = 1.
func (t *Tree[K, V]) neighbor(d int, key K) (k K, v V, ok bool) {
	// dir is what cmp.Compare answers for a key on side d of key.
	dir := 2*d - 1
	var best *node[K, V]
	n := t.root
	for n != nil {
		if cmp.Compare(n.k, key) == dir {
			best = n
			n = n.child[1-d]
		} else {
			n = n.child[d]
		}
	}
	if best == nil {
		return k, v, false
	}
	return best.k, best.v, true
}

// Keys returns all keys in ascending order.
func (t *Tree[K, V]) Keys() []K {
	keys := make([]K, 0, t.size)
	var walk func(n *node[K, V])
	walk = func(n *node[K, V]) {
		if n == nil {
			return
		}
		walk(n.child[0])
		keys = append(keys, n.k)
		walk(n.child[1])
	}
	walk(t.root)
	return keys
}

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree[K, V]) Height() int {
	var h func(n *node[K, V]) int
	h = func(n *node[K, V]) int {
		if n == nil {
			return 0
		}
		l, r := h(n.child[0]), h(n.child[1])
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

func colourOf[K, V any](n *node[K, V]) bool {
	if n == nil {
		return black
	}
	return n.colour
}

func parentOf[K, V any](n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return n.parent
}

func childOf[K, V any](n *node[K, V], d int) *node[K, V] {
	if n == nil {
		return nil
	}
	return n.child[d]
}

func setColour[K, V any](n *node[K, V], c bool) {
	if n != nil {
		n.colour = c
	}
}

// replace puts r where n hangs: in the child slot of n's parent that holds
// n, or at the root. It leaves the parent pointers alone.
func (t *Tree[K, V]) replace(n, r *node[K, V]) {
	switch p := n.parent; {
	case p == nil:
		t.root = r
	case p.child[0] == n:
		p.child[0] = r
	default:
		p.child[1] = r
	}
}

// rotate moves n down to side d and lifts its child on the other side, the
// pivot, into its place: rotate(n, 0) is a left rotation, rotate(n, 1) a
// right one.
func (t *Tree[K, V]) rotate(n *node[K, V], d int) {
	if n == nil {
		return
	}
	pivot := n.child[1-d]
	n.child[1-d] = pivot.child[d]
	if pivot.child[d] != nil {
		pivot.child[d].parent = n
	}
	pivot.parent = n.parent
	t.replace(n, pivot)
	pivot.child[d] = n
	n.parent = pivot
}

// fixAfterInsert restores the red-black conditions above the fresh red node
// x. Each pass is keyed on the side d on which x's parent hangs below x's
// grandparent; y is the uncle, on the other side.
func (t *Tree[K, V]) fixAfterInsert(x *node[K, V]) {
	x.colour = red
	for x != nil && x != t.root && colourOf(parentOf(x)) == red {
		d := 1
		if parentOf(x) == childOf(parentOf(parentOf(x)), 0) {
			d = 0
		}
		y := childOf(parentOf(parentOf(x)), 1-d)
		if colourOf(y) == red {
			setColour(parentOf(x), black)
			setColour(y, black)
			setColour(parentOf(parentOf(x)), red)
			x = parentOf(parentOf(x))
		} else {
			if x == childOf(parentOf(x), 1-d) {
				x = parentOf(x)
				t.rotate(x, d)
			}
			setColour(parentOf(x), black)
			setColour(parentOf(parentOf(x)), red)
			t.rotate(parentOf(parentOf(x)), 1-d)
		}
	}
	t.root.colour = black
}

// fixAfterDelete restores the red-black conditions after a black node was
// removed at x. Each pass is keyed on the side d on which x hangs below its
// parent; sib is x's sibling, on the other side.
func (t *Tree[K, V]) fixAfterDelete(x *node[K, V]) {
	for x != t.root && colourOf(x) == black {
		d := 1
		if x == childOf(parentOf(x), 0) {
			d = 0
		}
		sib := childOf(parentOf(x), 1-d)
		if colourOf(sib) == red {
			setColour(sib, black)
			setColour(parentOf(x), red)
			t.rotate(parentOf(x), d)
			sib = childOf(parentOf(x), 1-d)
		}
		if colourOf(childOf(sib, d)) == black && colourOf(childOf(sib, 1-d)) == black {
			setColour(sib, red)
			x = parentOf(x)
		} else {
			if colourOf(childOf(sib, 1-d)) == black {
				setColour(childOf(sib, d), black)
				setColour(sib, red)
				t.rotate(sib, 1-d)
				sib = childOf(parentOf(x), 1-d)
			}
			setColour(sib, colourOf(parentOf(x)))
			setColour(parentOf(x), black)
			setColour(childOf(sib, 1-d), black)
			t.rotate(parentOf(x), d)
			x = t.root
		}
	}
	setColour(x, black)
}

// CheckInvariants verifies the red-black tree properties: binary search
// order, no red node with a red parent, and equal black heights on every
// root-to-leaf path. It returns nil if all hold.
func (t *Tree[K, V]) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	if t.root.colour != black {
		return errRootNotBlack
	}
	_, err := checkNode(t.root, nil, nil)
	return err
}

type rbError string

func (e rbError) Error() string { return string(e) }

const (
	errRootNotBlack  = rbError("root is not black")
	errOrder         = rbError("keys out of order")
	errRedRed        = rbError("red node with red child")
	errBlackHeight   = rbError("unequal black heights")
	errParentPointer = rbError("bad parent pointer")
)

func checkNode[K cmp.Ordered, V any](n *node[K, V], lo, hi *K) (int, error) {
	if n == nil {
		return 1, nil
	}
	if lo != nil && !cmp.Less(*lo, n.k) {
		return 0, errOrder
	}
	if hi != nil && !cmp.Less(n.k, *hi) {
		return 0, errOrder
	}
	l, r := n.child[0], n.child[1]
	if n.colour == red && (colourOf(l) == red || colourOf(r) == red) {
		return 0, errRedRed
	}
	if l != nil && l.parent != n {
		return 0, errParentPointer
	}
	if r != nil && r.parent != n {
		return 0, errParentPointer
	}
	lh, err := checkNode(l, lo, &n.k)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(r, &n.k, hi)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackHeight
	}
	if n.colour == black {
		lh++
	}
	return lh, nil
}
