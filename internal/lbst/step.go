package lbst

import (
	"cmp"

	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/sched"
)

// Step assembles one localized template update that is not the engine's own
// insertion or deletion - a policy's rebalancing step - and commits it: the
// caller takes the LLXs, records each as kept or removed, builds the
// replacement subtree through the step, and calls Commit. The step owns what
// every such update used to repeat by hand: V and R as the SCX wants them,
// the list of fresh nodes to give back when the SCX fails, and the retiring
// of R when it succeeds.
//
// Fill in Tree and Guard (the invoking operation's pinned guard) and leave
// the rest zero. A Step is meant to live on its caller's frame: nothing here
// retains a pointer to it, so a step costs no allocation.
//
// Many steps come in mirror-image pairs. Such a step is written once over a
// side d - 0 when the side it calls "near" is the left, 1 when it is the
// right - and passes d wherever left and right matter: RemovePair orders a
// sibling pair for V and R, Internal places a fresh node's two children.
type Step[K cmp.Ordered, V any] struct {
	Tree  *Tree[K, V]
	Guard *epoch.Guard

	v     [llxscx.MaxV]llxscx.Linked[Node[K, V]]
	fin   [llxscx.MaxV]*Node[K, V]
	fresh [llxscx.MaxV]*Node[K, V]

	nv, nf, nfresh int
}

// Keep appends to V a node the update leaves in the tree: the node whose
// child field changes, or an ancestor whose evidence guards the update.
// Recording more than llxscx.MaxV nodes panics.
func (s *Step[K, V]) Keep(lk llxscx.Linked[Node[K, V]]) {
	s.v[s.nv] = lk
	s.nv++
}

// Remove appends a node the update removes to V and to R, so R is the
// removed subset of V in V's order (PC2).
func (s *Step[K, V]) Remove(lk llxscx.Linked[Node[K, V]]) {
	s.Keep(lk)
	s.fin[s.nf] = lk.Node()
	s.nf++
}

// RemovePair removes the two children of a node already recorded: near is
// its child on side d, far the other. They enter V and R in left-to-right
// tree order whatever d is, which is what keeps the V sequences of a step
// and of its mirror image, and of the engine's deletion, consistent with one
// breadth-first traversal (PC8).
func (s *Step[K, V]) RemovePair(d int, near, far llxscx.Linked[Node[K, V]]) {
	left, right := near, far
	if d != 0 {
		left, right = far, near
	}
	s.Remove(left)
	s.Remove(right)
}

// Copy is Tree.CopyNode, remembered as a fresh node of this step.
func (s *Step[K, V]) Copy(lk llxscx.Linked[Node[K, V]], deco int64) *Node[K, V] {
	return s.remember(s.Tree.CopyNode(s.Guard, lk, deco))
}

// Internal returns a fresh internal node carrying src's routing key and
// sentinel flag and the given decoration, whose child on side d is near and
// whose other child is far, remembered as a fresh node of this step.
func (s *Step[K, V]) Internal(src *Node[K, V], deco int64, d int, near, far *Node[K, V]) *Node[K, V] {
	left, right := near, far
	if d != 0 && !sched.Mutated(sched.IgnoreSide) {
		left, right = far, near
	}
	return s.remember(s.Tree.InternalNode(s.Guard, src.K, deco, src.IsSentinel(), left, right))
}

// Counted passes Commit's outcome through and, when the step committed, adds
// one to the counter of the side it ran on, on the guard's slot.
func (s *Step[K, V]) Counted(ok bool, d int, side0, side1 *epoch.Counter) bool {
	if ok {
		if d != 0 {
			side0 = side1
		}
		side0.Add(s.Guard, 1)
	}
	return ok
}

// remember records n as built for this step. Building more nodes than the
// step holds panics.
func (s *Step[K, V]) remember(n *Node[K, V]) *Node[K, V] {
	s.fresh[s.nfresh] = n
	s.nfresh++
	return n
}

// Commit performs the update: one SCX, on the guard's descriptor, that
// depends on V, finalizes R and swings the child field of u that held old to
// new. u must be in V (PC3). On success the nodes of R are retired under the
// guard, and true is returned. Otherwise - u's snapshot no longer has old as
// a child, or the SCX failed - nothing changed: every node built through the
// step goes back to the free list of the guard's slot (none was published,
// so none needs a grace period, and each copy drops the reference it took on
// its source's value cell) and false is returned.
func (s *Step[K, V]) Commit(u llxscx.Linked[Node[K, V]], old, new *Node[K, V]) bool {
	if fld := FieldOf(u, old); fld != nil && s.Tree.scx(s.Guard, &s.v, s.nv, &s.fin, s.nf, fld, old, new) {
		return true
	}
	for i := 0; i < s.nfresh; i++ {
		s.Tree.freeNode(s.Guard, s.fresh[i])
	}
	s.nfresh = 0
	return false
}
