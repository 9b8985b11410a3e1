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
// type, ordered by cmp.Less, and New keeps the historical int64
// instantiation used by the benchmark registry.
package seqrbt

import "cmp"

const (
	red   = false
	black = true
)

type node[K, V any] struct {
	k           K
	v           V
	colour      bool
	left, right *node[K, V]
	parent      *node[K, V]
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
// the instantiation the benchmark registry and the paper's figures use.
func New() *Tree[int64, int64] { return NewOrdered[int64, int64]() }

// IntTree is the historical int64 instantiation used by the benchmark
// registry.
type IntTree = Tree[int64, int64]

// Name identifies the data structure in benchmark reports.
func (t *Tree[K, V]) Name() string { return "SeqRBT" }

// Size returns the number of keys stored.
func (t *Tree[K, V]) Size() int { return t.size }

// lookup returns the node holding key, or nil; Get and Delete use it.
func (t *Tree[K, V]) lookup(key K) *node[K, V] {
	n := t.root
	for n != nil {
		switch c := cmp.Compare(key, n.k); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
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
			n = n.left
		case c > 0:
			n = n.right
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
		parent.left = fresh
	default:
		parent.right = fresh
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
	if n.left != nil && n.right != nil {
		s := n.right
		for s.left != nil {
			s = s.left
		}
		n.k, n.v = s.k, s.v
		n = s
	}
	// n now has at most one child.
	child := n.left
	if child == nil {
		child = n.right
	}
	if child != nil {
		child.parent = n.parent
		switch {
		case n.parent == nil:
			t.root = child
		case n == n.parent.left:
			n.parent.left = child
		default:
			n.parent.right = child
		}
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
			if n == n.parent.left {
				n.parent.left = nil
			} else {
				n.parent.right = nil
			}
			n.parent = nil
		}
	}
	return old, true
}

// Successor returns the smallest key strictly greater than key.
func (t *Tree[K, V]) Successor(key K) (k K, v V, ok bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if cmp.Less(key, n.k) {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return k, v, false
	}
	return best.k, best.v, true
}

// Predecessor returns the largest key strictly smaller than key.
func (t *Tree[K, V]) Predecessor(key K) (k K, v V, ok bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if cmp.Less(n.k, key) {
			best = n
			n = n.right
		} else {
			n = n.left
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
		walk(n.left)
		keys = append(keys, n.k)
		walk(n.right)
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
		l, r := h(n.left), h(n.right)
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

func leftOf[K, V any](n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return n.left
}

func rightOf[K, V any](n *node[K, V]) *node[K, V] {
	if n == nil {
		return nil
	}
	return n.right
}

func setColour[K, V any](n *node[K, V], c bool) {
	if n != nil {
		n.colour = c
	}
}

func (t *Tree[K, V]) rotateLeft(n *node[K, V]) {
	if n == nil {
		return
	}
	r := n.right
	n.right = r.left
	if r.left != nil {
		r.left.parent = n
	}
	r.parent = n.parent
	switch {
	case n.parent == nil:
		t.root = r
	case n.parent.left == n:
		n.parent.left = r
	default:
		n.parent.right = r
	}
	r.left = n
	n.parent = r
}

func (t *Tree[K, V]) rotateRight(n *node[K, V]) {
	if n == nil {
		return
	}
	l := n.left
	n.left = l.right
	if l.right != nil {
		l.right.parent = n
	}
	l.parent = n.parent
	switch {
	case n.parent == nil:
		t.root = l
	case n.parent.right == n:
		n.parent.right = l
	default:
		n.parent.left = l
	}
	l.right = n
	n.parent = l
}

func (t *Tree[K, V]) fixAfterInsert(x *node[K, V]) {
	x.colour = red
	for x != nil && x != t.root && colourOf(parentOf(x)) == red {
		if parentOf(x) == leftOf(parentOf(parentOf(x))) {
			y := rightOf(parentOf(parentOf(x)))
			if colourOf(y) == red {
				setColour(parentOf(x), black)
				setColour(y, black)
				setColour(parentOf(parentOf(x)), red)
				x = parentOf(parentOf(x))
			} else {
				if x == rightOf(parentOf(x)) {
					x = parentOf(x)
					t.rotateLeft(x)
				}
				setColour(parentOf(x), black)
				setColour(parentOf(parentOf(x)), red)
				t.rotateRight(parentOf(parentOf(x)))
			}
		} else {
			y := leftOf(parentOf(parentOf(x)))
			if colourOf(y) == red {
				setColour(parentOf(x), black)
				setColour(y, black)
				setColour(parentOf(parentOf(x)), red)
				x = parentOf(parentOf(x))
			} else {
				if x == leftOf(parentOf(x)) {
					x = parentOf(x)
					t.rotateRight(x)
				}
				setColour(parentOf(x), black)
				setColour(parentOf(parentOf(x)), red)
				t.rotateLeft(parentOf(parentOf(x)))
			}
		}
	}
	t.root.colour = black
}

func (t *Tree[K, V]) fixAfterDelete(x *node[K, V]) {
	for x != t.root && colourOf(x) == black {
		if x == leftOf(parentOf(x)) {
			sib := rightOf(parentOf(x))
			if colourOf(sib) == red {
				setColour(sib, black)
				setColour(parentOf(x), red)
				t.rotateLeft(parentOf(x))
				sib = rightOf(parentOf(x))
			}
			if colourOf(leftOf(sib)) == black && colourOf(rightOf(sib)) == black {
				setColour(sib, red)
				x = parentOf(x)
			} else {
				if colourOf(rightOf(sib)) == black {
					setColour(leftOf(sib), black)
					setColour(sib, red)
					t.rotateRight(sib)
					sib = rightOf(parentOf(x))
				}
				setColour(sib, colourOf(parentOf(x)))
				setColour(parentOf(x), black)
				setColour(rightOf(sib), black)
				t.rotateLeft(parentOf(x))
				x = t.root
			}
		} else {
			sib := leftOf(parentOf(x))
			if colourOf(sib) == red {
				setColour(sib, black)
				setColour(parentOf(x), red)
				t.rotateRight(parentOf(x))
				sib = leftOf(parentOf(x))
			}
			if colourOf(rightOf(sib)) == black && colourOf(leftOf(sib)) == black {
				setColour(sib, red)
				x = parentOf(x)
			} else {
				if colourOf(leftOf(sib)) == black {
					setColour(rightOf(sib), black)
					setColour(sib, red)
					t.rotateLeft(sib)
					sib = leftOf(parentOf(x))
				}
				setColour(sib, colourOf(parentOf(x)))
				setColour(parentOf(x), black)
				setColour(leftOf(sib), black)
				t.rotateRight(parentOf(x))
				x = t.root
			}
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
	if n.colour == red && (colourOf(n.left) == red || colourOf(n.right) == red) {
		return 0, errRedRed
	}
	if n.left != nil && n.left.parent != n {
		return 0, errParentPointer
	}
	if n.right != nil && n.right.parent != n {
		return 0, errParentPointer
	}
	lh, err := checkNode(n.left, lo, &n.k)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(n.right, &n.k, hi)
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
