// Package ravl implements the non-blocking relaxed AVL tree discussed in
// Section 5 of Brown, Ellen and Ruppert, "A General Technique for
// Non-blocking Trees" (PPoPP 2014): the height-relaxed AVL rebalancing of
// Bougé, Gabarró, Messeguer and Schabanel expressed as localized updates of
// the tree update template.
//
// The tree is built entirely on the shared leaf-oriented BST engine
// (internal/lbst), as the chromatic tree is; this package supplies only the
// balancing policy, and like the engine it is generic over the key and value
// types (NewOrdered for cmp.Ordered keys, New for the int64
// instantiation). Every node's decoration is its relaxed height: 0 for
// leaves, and for internal nodes a value that would be 1 + max of the
// children's heights if the tree were quiescent and fully rebalanced.
// Insertions and deletions are the engine's ordinary template updates and do
// not touch ancestors' heights; instead, a node whose stored height no
// longer matches its children's (a height violation), or whose children's
// heights differ by two or more (a balance violation), is repaired later by
// one of three localized rebalancing steps, each a template update of its
// own:
//
//	height fix       replace a node with a copy carrying the corrected
//	                 height (may create a height violation at its parent,
//	                 which migrates the violation one level up);
//	single rotation  the classical AVL rotation, applied when the taller
//	                 child leans outward (or evenly);
//	double rotation  the classical AVL double rotation, applied when the
//	                 taller child leans inward.
//
// Rotations are only applied between nodes whose stored heights are locally
// correct, as in Bougé et al.; otherwise the child's height is fixed first.
// Because updates are decoupled from rebalancing, the AVL balance condition
// may be violated transiently (that is the "relaxed"): each operation's
// cleanup restores balance along its own search path, and a rotation can
// push a balance violation onto a path that no operation is currently
// repairing. RebalanceAll drains every remaining violation at quiescence,
// after which the tree is an exact AVL tree (CheckAVL).
package ravl

import (
	"cmp"
	"fmt"

	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/llxscx"
)

// Stats counts the rebalancing steps performed on a tree. Counts are
// monotone and only approximately ordered with respect to concurrent
// operations. The counters are sharded by epoch slot (epoch.Counters), so a
// step counts on a line private to the operation running it.
type Stats struct {
	set epoch.Counters

	Cleanups epoch.Counter // cleanup passes triggered by updates

	// The seven steps, one counter each: a height fix at the violating node,
	// and below a node whose left child is the taller one a height fix of
	// that child, a single rotation or a double rotation (Mirror*: the right
	// child is the taller one).
	HeightFixes                              epoch.Counter
	ChildHeightFixes, MirrorChildHeightFixes epoch.Counter
	SingleRotations, MirrorSingleRotations   epoch.Counter
	DoubleRotations, MirrorDoubleRotations   epoch.Counter
}

func (s *Stats) init() {
	s.set.Bind(&s.Cleanups, &s.HeightFixes,
		&s.ChildHeightFixes, &s.MirrorChildHeightFixes,
		&s.SingleRotations, &s.MirrorSingleRotations,
		&s.DoubleRotations, &s.MirrorDoubleRotations)
}

// RebalanceTotal returns the total number of successful rebalancing steps.
func (s *Stats) RebalanceTotal() int64 {
	return s.HeightFixes.Load() + s.ChildHeightFixes.Load() + s.MirrorChildHeightFixes.Load() +
		s.SingleRotations.Load() + s.MirrorSingleRotations.Load() +
		s.DoubleRotations.Load() + s.MirrorDoubleRotations.Load()
}

// policy is the relaxed AVL balancing policy for the lbst engine. eng is the
// engine tree it balances, wired after construction; the rebalancing steps
// draw their fresh nodes from its free lists.
type policy[K cmp.Ordered, V any] struct {
	stats *Stats
	eng   *lbst.Tree[K, V]
}

// SentinelDeco implements lbst.Policy: sentinels carry no height bookkeeping.
func (p *policy[K, V]) SentinelDeco() int64 { return 0 }

// InsertDecos implements lbst.Policy: the internal node created by an
// insertion sits above two leaves (height 0, which the old leaf already
// carries), so its locally correct height is 1.
func (p *policy[K, V]) InsertDecos(_, _ *lbst.Node[K, V]) (internal, leaf, oldLeaf int64) {
	return 1, 0, 0
}

// PromoteDeco implements lbst.Policy: the promoted sibling's own subtree is
// unchanged, so its height is too.
func (p *policy[K, V]) PromoteDeco(_, _, s *lbst.Node[K, V]) int64 { return s.Deco() }

// CreatesViolation implements lbst.Policy. Replacing oldChild by newChild
// below parent can only create a violation at parent, and only if the
// replacement's stored height differs from what parent's bookkeeping
// expects - that is, from oldChild's stored height. (An insertion replaces
// a height-0 leaf with a height-1 internal node; a deletion replaces a
// parent with the promoted sibling, whose height is typically one less.)
// Sentinels carry no height bookkeeping, so changes directly below them
// never violate anything.
func (p *policy[K, V]) CreatesViolation(_ K, parent, oldChild, newChild *lbst.Node[K, V]) bool {
	if parent.IsSentinel() {
		return false
	}
	if oldChild.Deco() == newChild.Deco() {
		return false
	}
	p.stats.Cleanups.Add(nil, 1) // the engine hands CreatesViolation no guard
	return true
}

// Violation implements lbst.Policy: using plain reads, an internal node below
// the sentinels is in violation if its stored height is not one more than its
// children's maximum, or if the children's stored heights differ by two or
// more.
func (p *policy[K, V]) Violation(_, n *lbst.Node[K, V]) bool {
	if n.IsLeaf() || n.IsSentinel() {
		return false
	}
	l, r := n.Left(), n.Right()
	if l == nil || r == nil {
		return false
	}
	hl, hr := l.Deco(), r.Deco()
	return n.Deco() != 1+max(hl, hr) || hl-hr >= 2 || hr-hl >= 2
}

// Rebalance implements lbst.Policy: one localized rebalancing step at n,
// whose parent on the search path is u, expressed as LLXs followed by a
// single SCX exactly like the engine's insertions and deletions (the V
// sequences are ordered root-to-leaf, satisfying PC8, and every removed
// node reappears only as a copy, satisfying PC9). Each step is assembled on
// an lbst.Step, whose Commit retires the removed nodes when the SCX succeeds
// and returns the fresh ones to the engine's free lists when it fails.
func (p *policy[K, V]) Rebalance(g *epoch.Guard, _, _, u, n *lbst.Node[K, V]) bool {
	lkU, st := u.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	if lbst.FieldOf(lkU, n) == nil {
		return false // n is no longer u's child; caller re-searches
	}
	lkN, st := n.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	l, r := lkN.Child(0), lkN.Child(1)
	if l == nil || r == nil {
		return false
	}
	hl, hr := l.Deco(), r.Deco()
	switch {
	case hl >= hr+2:
		return p.fix(g, 0, lkU, lkN)
	case hr >= hl+2:
		return p.fix(g, 1, lkU, lkN)
	case n.Deco() != 1+max(hl, hr):
		s := lbst.Step[K, V]{Tree: p.eng, Guard: g}
		s.Keep(lkU)
		s.Remove(lkN)
		ok := s.Commit(lkU, n, s.Copy(lkN, 1+max(hl, hr)))
		if ok {
			p.stats.HeightFixes.Add(g, 1)
		}
		return ok
	}
	// The violation vanished between the plain-read check and the LLXs.
	return false
}

// fix repairs a balance violation where t, n's child on side d (0: the left
// one), is at least two taller than its other child, s. Below t, to is the
// outer grandchild of n (t's child on side d) and ti the inner one. The
// linked LLX evidence for u and n is supplied by the caller, who has checked
// that both children of n exist.
func (p *policy[K, V]) fix(g *epoch.Guard, d int, lkU, lkN llxscx.Linked[lbst.Node[K, V]]) bool {
	n := lkN.Node()
	t, s := lkN.Child(d), lkN.Child(1-d)
	if t.IsLeaf() {
		// Leaves store height 0, so a leaf can never be the taller side by
		// two; the tree changed under us.
		return false
	}
	lkT, st := t.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	to, ti := lkT.Child(d), lkT.Child(1-d)
	if to == nil || ti == nil {
		return false
	}
	hto, hti := to.Deco(), ti.Deco()
	step := lbst.Step[K, V]{Tree: p.eng, Guard: g}
	step.Keep(lkU)
	if t.Deco() != 1+max(hto, hti) {
		// Rotations are only applied between nodes whose stored heights are
		// locally correct; fix the child's height first (the balance
		// violation at n is then re-evaluated against the corrected height).
		step.Keep(lkN)
		step.Remove(lkT)
		ok := step.Commit(lkN, t, step.Copy(lkT, 1+max(hto, hti)))
		return step.Counted(ok, d, &p.stats.ChildHeightFixes, &p.stats.MirrorChildHeightFixes)
	}
	step.Remove(lkN)
	step.Remove(lkT)
	if hto >= hti {
		// Single rotation: t becomes the subtree root, n drops to its far
		// side with the inner subtree ti attached.
		down := step.Internal(n, 1+max(hti, s.Deco()), d, ti, s)
		root := step.Internal(t, 1+max(hto, down.Deco()), d, to, down)
		return step.Counted(step.Commit(lkU, n, root), d, &p.stats.SingleRotations, &p.stats.MirrorSingleRotations)
	}
	// Double rotation: the taller child leans inward, so ti (which must be
	// internal, since its stored height is at least 1) becomes the root, above
	// t on the near side and n on the far side, and its two subtrees are
	// shared out between them.
	if ti.IsLeaf() {
		return false
	}
	lkTI, st := ti.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	tin, tif := lkTI.Child(d), lkTI.Child(1-d)
	if tin == nil || tif == nil {
		return false
	}
	step.Remove(lkTI)
	near := step.Internal(t, 1+max(hto, tin.Deco()), d, to, tin)
	far := step.Internal(n, 1+max(tif.Deco(), s.Deco()), d, tif, s)
	root := step.Internal(ti, 1+max(near.Deco(), far.Deco()), d, near, far)
	return step.Counted(step.Commit(lkU, n, root), d, &p.stats.DoubleRotations, &p.stats.MirrorDoubleRotations)
}

// Tree is a non-blocking relaxed AVL tree implementing an ordered
// dictionary. It is safe for concurrent use by any number of goroutines.
// Use New or NewOrdered. All dictionary and ordered-query
// operations come from the embedded engine; this type adds the AVL-specific
// inspection and quiescent rebalancing helpers.
type Tree[K cmp.Ordered, V any] struct {
	*lbst.Tree[K, V]
	pol   *policy[K, V]
	stats Stats
}

// NewOrdered returns an empty relaxed AVL tree over a naturally ordered key
// type.
func NewOrdered[K cmp.Ordered, V any]() *Tree[K, V] {
	t := &Tree[K, V]{}
	t.stats.init()
	t.pol = &policy[K, V]{stats: &t.stats}
	t.Tree = lbst.NewOrdered[K, V](t.pol)
	t.pol.eng = t.Tree
	return t
}

// New returns an empty relaxed AVL tree with int64 keys and values, the
// instantiation the repository benchmark uses.
func New() *Tree[int64, int64] {
	return NewOrdered[int64, int64]()
}

// Stats returns the tree's rebalancing counters.
func (t *Tree[K, V]) Stats() *Stats { return &t.stats }

// DrainCap returns a generous bound on the quiescent rebalancing work for a
// tree of n keys: far more steps than any converging drain needs, small
// enough that RebalanceAll fails fast if step selection ever diverged.
func DrainCap(n int) int { return 30*n + 10000 }

// RebalanceAll repeatedly applies rebalancing steps, deepest violation
// first, until the tree contains none, and returns the number of steps
// performed. It must only be called at quiescence (concurrent updates can
// create violations faster than they are drained). maxSteps bounds the work
// as a safety net; an error reports a stuck or diverging rebalancing, which
// would indicate a bug in the step selection.
func (t *Tree[K, V]) RebalanceAll(maxSteps int) (int, error) {
	steps := 0
	for {
		u, n := t.findViolation()
		if n == nil {
			return steps, nil
		}
		if steps >= maxSteps {
			return steps, fmt.Errorf("rebalancing did not converge after %d steps (violation at key %v)", steps, n.K)
		}
		g := epoch.Pin()
		ok := t.pol.Rebalance(g, nil, nil, u, n)
		epoch.Unpin(g)
		if !ok {
			return steps, fmt.Errorf("rebalancing step failed at quiescence (key %v)", n.K)
		}
		steps++
	}
}

// findViolation returns the parent and node of a deepest violation
// (postorder: children are repaired before their ancestors, so rotations
// always see locally correct heights below them), or nil if none exists.
// Quiescence only.
func (t *Tree[K, V]) findViolation() (u, n *lbst.Node[K, V]) {
	var rec func(parent, nd *lbst.Node[K, V]) (*lbst.Node[K, V], *lbst.Node[K, V])
	rec = func(parent, nd *lbst.Node[K, V]) (*lbst.Node[K, V], *lbst.Node[K, V]) {
		if nd == nil || nd.IsLeaf() {
			return nil, nil
		}
		if pu, pn := rec(nd, nd.Left()); pn != nil {
			return pu, pn
		}
		if pu, pn := rec(nd, nd.Right()); pn != nil {
			return pu, pn
		}
		if t.pol.Violation(parent, nd) {
			return parent, nd
		}
		return nil, nil
	}
	return rec(t.Entry(), t.Entry().Left())
}

// CountViolations returns the number of height and balance violations
// currently present. Quiescence only.
func (t *Tree[K, V]) CountViolations() int {
	count := 0
	var rec func(nd *lbst.Node[K, V])
	rec = func(nd *lbst.Node[K, V]) {
		if nd == nil || nd.IsLeaf() {
			return
		}
		if t.pol.Violation(nil, nd) {
			count++
		}
		rec(nd.Left())
		rec(nd.Right())
	}
	rec(t.Entry().Left())
	return count
}

// CheckAVL verifies that the tree is an exact AVL tree: the shared
// structural invariants hold (CheckStructure), every stored height equals
// the node's true height (0 for a leaf), and every internal node's subtree
// heights differ by at most one. After sequential operation - or after RebalanceAll at
// quiescence - this must hold. It returns nil on success.
func (t *Tree[K, V]) CheckAVL() error {
	if err := t.CheckStructure(); err != nil {
		return err
	}
	root := t.Root()
	if root == nil {
		return nil
	}
	var walk func(nd *lbst.Node[K, V]) (int64, error)
	walk = func(nd *lbst.Node[K, V]) (int64, error) {
		if nd.IsLeaf() {
			if nd.Deco() != 0 {
				return 0, fmt.Errorf("leaf %v stores height %d, want 0", nd.K, nd.Deco())
			}
			return 0, nil
		}
		hl, err := walk(nd.Left())
		if err != nil {
			return 0, err
		}
		hr, err := walk(nd.Right())
		if err != nil {
			return 0, err
		}
		if nd.Deco() != 1+max(hl, hr) {
			return 0, fmt.Errorf("node %v stores height %d, true height is %d", nd.K, nd.Deco(), 1+max(hl, hr))
		}
		if hl-hr > 1 || hr-hl > 1 {
			return 0, fmt.Errorf("AVL balance violated at node %v: subtree heights %d and %d", nd.K, hl, hr)
		}
		return nd.Deco(), nil
	}
	_, err := walk(root)
	return err
}
