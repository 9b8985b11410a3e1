package lbst

import (
	"errors"
	"fmt"
)

// CheckStructure verifies the structural invariants every tree built on the
// engine must satisfy, independent of its balancing policy:
//
//   - the sentinel structure at the top of the tree is intact;
//   - every internal node has exactly two children and every leaf none;
//   - decorations need no check here: they are packed into 30 bits beside
//     the leaf and sentinel flags (see aux), which refuses a value outside
//     [0, MaxDeco] when the node is built, so what a node stores is what its
//     policy asked for, and the flags are checked against the node's shape
//     by the two conditions above;
//   - keys satisfy the leaf-oriented BST order under the tree's comparator
//     (left subtree strictly smaller than the routing key, right subtree
//     greater or equal);
//   - no reachable node has been finalized.
//
// It must only be called at quiescence. It returns nil if all invariants
// hold. Policy-specific balance invariants (the relaxed AVL's height
// bookkeeping, the chromatic tree's weights) are checked by the concrete tree
// packages.
func (t *Tree[K, V]) CheckStructure() error {
	top := t.entry.left.Load()
	if top == nil {
		return errors.New("entry has no left child")
	}
	if !top.IsSentinel() {
		return fmt.Errorf("node below entry is not a sentinel (key %v)", top.K)
	}
	if t.entry.Marked() || top.Marked() {
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
	type bound struct {
		lo, hi K
		hasLo  bool
		hasHi  bool
	}
	var walk func(parent, n *Node[K, V], b bound) error
	walk = func(parent, n *Node[K, V], b bound) error {
		if n == nil {
			return fmt.Errorf("internal node %v has a nil child", parent.K)
		}
		if n.Marked() {
			return fmt.Errorf("reachable node with key %v is finalized", n.K)
		}
		if n.IsLeaf() {
			if n.left.Load() != nil || n.right.Load() != nil {
				return fmt.Errorf("leaf %v has children", n.K)
			}
			if !n.IsSentinel() {
				if b.hasLo && t.less(n.K, b.lo) {
					return fmt.Errorf("leaf key %v below lower bound %v", n.K, b.lo)
				}
				if b.hasHi && !t.less(n.K, b.hi) {
					return fmt.Errorf("leaf key %v not below upper bound %v", n.K, b.hi)
				}
			}
			return nil
		}
		if n.IsSentinel() {
			return errors.New("sentinel internal node found inside the tree proper")
		}
		if b.hasLo && t.less(n.K, b.lo) {
			return fmt.Errorf("routing key %v below lower bound %v", n.K, b.lo)
		}
		if b.hasHi && t.less(b.hi, n.K) {
			return fmt.Errorf("routing key %v above upper bound %v", n.K, b.hi)
		}
		lb := b
		lb.hi, lb.hasHi = n.K, true
		if err := walk(n, n.left.Load(), lb); err != nil {
			return err
		}
		rb := b
		rb.lo, rb.hasLo = n.K, true
		return walk(n, n.right.Load(), rb)
	}
	return walk(top, root, bound{})
}
