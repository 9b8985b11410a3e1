package chromatic

import (
	"errors"
	"fmt"

	"repro/internal/epoch"
)

// This file provides structural inspection utilities used by tests, the
// height-bound experiment and the benchmark harness. They traverse the tree
// with plain reads and are only meaningful when no updates are in progress
// (quiescence); they are not part of the concurrent public API. The one
// exception is CountViolations, which the height-bound experiment samples
// while updaters are running and which therefore pins the epoch layer for
// the duration of its walk.

// Size returns the number of keys currently stored. It runs in linear time
// and should only be used at quiescence.
func (t *Tree[K, V]) Size() int {
	size := 0
	t.visitLeaves(t.entry.left.Load(), func(n *node[K, V]) {
		if !n.IsSentinel() {
			size++
		}
	})
	return size
}

// Keys returns all keys in ascending order. Quiescence only.
func (t *Tree[K, V]) Keys() []K {
	var keys []K
	t.visitLeaves(t.entry.left.Load(), func(n *node[K, V]) {
		if !n.IsSentinel() {
			keys = append(keys, n.k)
		}
	})
	return keys
}

// Height returns the number of nodes on the longest path from the chromatic
// tree's root to a leaf (0 for an empty dictionary). Quiescence only.
func (t *Tree[K, V]) Height() int {
	return height(t.chromaticRoot())
}

// CountViolations returns the number of red-red and overweight violations
// currently present in the tree. Unlike the other inspectors it may be
// called while updates are running (the Section 5.3 height-bound experiment
// samples it mid-run): the walk pins an epoch slot so nodes retired by
// concurrent updates park instead of being recycled under it, and the
// fields it reads (weight, leaf flag, child pointers) are immutable after a
// node publishes. The count itself is still only exact at quiescence — a
// mid-run sample is a snapshot of a moving target, which is precisely what
// the experiment wants.
func (t *Tree[K, V]) CountViolations() int {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	root := t.chromaticRoot()
	if root == nil {
		return 0
	}
	return countViolations(nil, root)
}

// chromaticRoot returns the root of the chromatic tree proper (the leftmost
// grandchild of the entry node), or nil when the dictionary is empty.
func (t *Tree[K, V]) chromaticRoot() *node[K, V] {
	top := t.entry.left.Load()
	if top == nil || top.IsLeaf() {
		return nil
	}
	return top.left.Load()
}

func (t *Tree[K, V]) visitLeaves(n *node[K, V], fn func(*node[K, V])) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		fn(n)
		return
	}
	t.visitLeaves(n.left.Load(), fn)
	t.visitLeaves(n.right.Load(), fn)
}

func height[K, V any](n *node[K, V]) int {
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

func countViolations[K, V any](parent, n *node[K, V]) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.w() > 1 {
		c += int(n.w()) - 1
	}
	if parent != nil && parent.w() == 0 && n.w() == 0 {
		c++
	}
	if !n.IsLeaf() {
		c += countViolations(n, n.left.Load())
		c += countViolations(n, n.right.Load())
	}
	return c
}

// CheckInvariants verifies the structural invariants of the chromatic tree:
//
//   - the sentinel structure at the top of the tree is intact;
//   - every internal node has exactly two children and every leaf none;
//   - leaves have weight at least one and nodes never have negative weight.
//     Weights are packed into 30 bits beside the leaf and sentinel flags
//     (see aux) and read back signed, so this is also the check that every
//     weight is representable: one that outgrew the field reads back
//     negative, with the flags - which the two conditions above check against
//     the node's shape - untouched;
//   - keys satisfy the leaf-oriented BST order under the tree's comparator
//     (left subtree strictly smaller than the routing key, right subtree
//     greater or equal);
//   - every root-to-leaf path in the chromatic tree has the same total
//     weight (the defining chromatic tree property);
//   - no reachable node has been finalized.
//
// It must only be called at quiescence. It returns nil if all invariants
// hold.
func (t *Tree[K, V]) CheckInvariants() error {
	top := t.entry.left.Load()
	if top == nil {
		return errors.New("entry has no left child")
	}
	if !top.IsSentinel() || top.w() != 1 {
		return fmt.Errorf("node below entry is not a weight-1 sentinel (inf=%v w=%d)", top.IsSentinel(), top.w())
	}
	if t.entry.rec.Marked() || top.rec.Marked() {
		return errors.New("a sentinel node is finalized")
	}
	if top.IsLeaf() {
		return nil // empty dictionary: Figure 10(a)
	}
	right := top.right.Load()
	if right == nil || !right.IsLeaf() || !right.IsSentinel() {
		return errors.New("right child of the sentinel internal node is not the sentinel leaf")
	}
	root := top.left.Load()
	if root == nil {
		return errors.New("sentinel internal node has no left child")
	}
	if root.w() != 1 {
		return fmt.Errorf("chromatic root has weight %d, want 1", root.w())
	}
	type bound struct {
		lo, hi K
		hasLo  bool
		hasHi  bool
	}
	var walk func(parent, n *node[K, V], b bound) (int32, error)
	walk = func(parent, n *node[K, V], b bound) (int32, error) {
		if n == nil {
			return 0, fmt.Errorf("internal node %v has a nil child", parent.k)
		}
		if n.rec.Marked() {
			return 0, fmt.Errorf("reachable node with key %v is finalized", n.k)
		}
		if n.w() < 0 {
			return 0, fmt.Errorf("node %v has negative weight %d (a weight above %d wraps the packed field)", n.k, n.w(), maxWeight)
		}
		if n.IsLeaf() {
			if n.left.Load() != nil || n.right.Load() != nil {
				return 0, fmt.Errorf("leaf %v has children", n.k)
			}
			if n.w() < 1 {
				return 0, fmt.Errorf("leaf %v has weight %d, want >= 1", n.k, n.w())
			}
			if !n.IsSentinel() {
				if b.hasLo && t.less(n.k, b.lo) {
					return 0, fmt.Errorf("leaf key %v below lower bound %v", n.k, b.lo)
				}
				if b.hasHi && !t.less(n.k, b.hi) {
					return 0, fmt.Errorf("leaf key %v not below upper bound %v", n.k, b.hi)
				}
			}
			return n.w(), nil
		}
		if n.IsSentinel() {
			return 0, fmt.Errorf("sentinel internal node with key infinity found inside the chromatic tree")
		}
		if b.hasLo && t.less(n.k, b.lo) {
			return 0, fmt.Errorf("routing key %v below lower bound %v", n.k, b.lo)
		}
		if b.hasHi && t.less(b.hi, n.k) {
			return 0, fmt.Errorf("routing key %v above upper bound %v", n.k, b.hi)
		}
		lb := b
		lb.hi, lb.hasHi = n.k, true
		lw, err := walk(n, n.left.Load(), lb)
		if err != nil {
			return 0, err
		}
		rb := b
		rb.lo, rb.hasLo = n.k, true
		rw, err := walk(n, n.right.Load(), rb)
		if err != nil {
			return 0, err
		}
		if lw != rw {
			return 0, fmt.Errorf("unequal weighted path lengths below key %v: left %d, right %d", n.k, lw, rw)
		}
		return lw + n.w(), nil
	}
	_, err := walk(top, root, bound{})
	return err
}

// CheckRedBlack verifies that the tree currently satisfies the red-black
// properties, i.e. that it contains no violations: no node has weight
// greater than one and no red node has a red parent. After all insertions
// and deletions have completed (and, for the plain Chromatic configuration,
// after their cleanup phases), the tree must satisfy this. Quiescence only.
func (t *Tree[K, V]) CheckRedBlack() error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	root := t.chromaticRoot()
	if root == nil {
		return nil
	}
	var walk func(parent, n *node[K, V]) error
	walk = func(parent, n *node[K, V]) error {
		if n == nil {
			return nil
		}
		if n.w() > 1 {
			return fmt.Errorf("node %v is overweight (w=%d)", n.k, n.w())
		}
		if parent != nil && parent.w() == 0 && n.w() == 0 {
			return fmt.Errorf("red-red violation at node %v", n.k)
		}
		if n.IsLeaf() {
			return nil
		}
		if err := walk(n, n.left.Load()); err != nil {
			return err
		}
		return walk(n, n.right.Load())
	}
	return walk(nil, root)
}
