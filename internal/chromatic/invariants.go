package chromatic

import (
	"fmt"

	"repro/internal/epoch"
	"repro/internal/lbst"
)

// This file provides the weight-aware inspection utilities used by tests, the
// height-bound experiment and the benchmark harness (Size, Keys and Height
// come from the engine). They traverse the tree with plain reads and are only
// meaningful when no updates are in progress (quiescence); they are not part
// of the concurrent public API. The one exception is CountViolations, which
// the height-bound experiment samples while updaters are running and which
// therefore pins the epoch layer for the duration of its walk.

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
	root := t.Root()
	if root == nil {
		return 0
	}
	return countViolations(nil, root)
}

func countViolations[K, V any](parent, n *lbst.Node[K, V]) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Deco() > 1 {
		c += int(n.Deco()) - 1
	}
	if parent != nil && parent.Deco() == 0 && n.Deco() == 0 {
		c++
	}
	if !n.IsLeaf() {
		c += countViolations(n, n.Left())
		c += countViolations(n, n.Right())
	}
	return c
}

// CheckInvariants verifies the structural invariants of the chromatic tree:
// the engine's (lbst.Tree.CheckStructure: the sentinel structure is intact,
// every internal node has two children and every leaf none, keys satisfy the
// leaf-oriented BST order, no reachable node is finalized) and the weights':
//
//   - the sentinel below the entry node and the chromatic root have weight
//     one;
//   - leaves have weight at least one (no weight is negative: the engine
//     refuses a decoration outside [0, lbst.MaxDeco] when a node is built);
//   - every root-to-leaf path in the chromatic tree has the same total
//     weight (the defining chromatic tree property).
//
// It must only be called at quiescence. It returns nil if all invariants
// hold.
func (t *Tree[K, V]) CheckInvariants() error {
	if err := t.CheckStructure(); err != nil {
		return err
	}
	if top := t.Entry().Left(); top.Deco() != 1 {
		return fmt.Errorf("sentinel below entry has weight %d, want 1", top.Deco())
	}
	root := t.Root()
	if root == nil {
		return nil // empty dictionary: Figure 10(a)
	}
	if root.Deco() != 1 {
		return fmt.Errorf("chromatic root has weight %d, want 1", root.Deco())
	}
	var walk func(n *lbst.Node[K, V]) (int64, error)
	walk = func(n *lbst.Node[K, V]) (int64, error) {
		if n.IsLeaf() {
			if n.Deco() < 1 {
				return 0, fmt.Errorf("leaf %v has weight %d, want >= 1", n.K, n.Deco())
			}
			return n.Deco(), nil
		}
		lw, err := walk(n.Left())
		if err != nil {
			return 0, err
		}
		rw, err := walk(n.Right())
		if err != nil {
			return 0, err
		}
		if lw != rw {
			return 0, fmt.Errorf("unequal weighted path lengths below key %v: left %d, right %d", n.K, lw, rw)
		}
		return lw + n.Deco(), nil
	}
	_, err := walk(root)
	return err
}

// CheckRedBlack verifies that the tree currently satisfies the red-black
// properties, i.e. that the policy finds a violation nowhere: no node has
// weight greater than one and no red node has a red parent. After all insertions
// and deletions have completed (and, for the plain Chromatic configuration,
// after their cleanup phases), the tree must satisfy this. Quiescence only.
func (t *Tree[K, V]) CheckRedBlack() error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	root := t.Root()
	if root == nil {
		return nil
	}
	var walk func(parent, n *lbst.Node[K, V]) error
	walk = func(parent, n *lbst.Node[K, V]) error {
		if t.pol.Violation(parent, n) {
			return fmt.Errorf("violation at node %v: weight %d below a parent of weight %d", n.K, n.Deco(), parent.Deco())
		}
		if n.IsLeaf() {
			return nil
		}
		if err := walk(n, n.Left()); err != nil {
			return err
		}
		return walk(n, n.Right())
	}
	return walk(t.Entry().Left(), root)
}
