package chromatic

import (
	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/llxscx"
)

// This file implements the localized rebalancing steps of the chromatic tree
// (Boyar, Fagerberg and Larsen's steps, as adapted by Brown, Ellen and
// Ruppert in Figure 11 of the paper) and the decision procedure that selects
// which step to apply at a violation (Figures 14-16). The figure draws
// eleven transformations and gives each a mirror image (the trailing S of
// RB1S, W1S, ...), 22 named steps in all; here each of the eleven is written
// once, over a side d that says which way round it runs.
//
// Naming. In each transformation u is the node whose child pointer is
// changed and ux is the child of u being replaced (the root of the removed
// subgraph), as in the paper. Below ux, nodes are named by position relative
// to the violation instead of by left and right: n is the near child of ux -
// its child on side d, Child(d) of ux's snapshot, the left child when d is 0
// and the right child when d is 1 - and f is the far child, Child(1-d). In
// an overweight step n is the overweight node and f its sibling; in a
// red-red step n is the red parent of the red node. One more letter goes one
// level down: fn and ff are the near and far child of f, nn and nf those of
// n, fnn and fnf those of fn, and so on. With d = 0 the names read as the
// figure's (n = uxl, f = uxr, fn = uxrl, ff = uxrr, fnn = uxrll, ...), with
// d = 1 as its mirror image's. Stats counts the two sides of a step
// separately (W1 for d = 0, MirrorW1 for d = 1).
//
// Each transformation preserves the binary search tree order and the
// equality of weighted path lengths, never increases the number of
// violations, and keeps any remaining violation on the search path of the
// key whose insertion or deletion created it (property VIOL of Section 5.2).
//
// Every step runs under the invoking operation's pinned epoch guard and is
// assembled on an lbst.Step: the LLX evidence is recorded as kept (u) or
// removed (everything below it), a sibling pair through RemovePair, which
// lists the left one first whatever d is (PC8); a removed node reappears in
// the new subtree only as a copy (Step.Copy, which aliases a leaf's value
// cell) or as a fresh node with its key (Step.Internal, which places two
// children given as near and far); subtrees hanging off the removed nodes
// are reused as children of fresh nodes. Step.Commit runs the SCX, retires
// the removed nodes on success and returns every fresh node to the free
// list of the step's epoch slot on failure - they were never published, so
// no grace period is needed.

// replacementWeight returns the weight of the node that replaces ux as a
// child of u: the computed weight w, or 1 when u is a sentinel so that the
// chromatic root always keeps weight one (the "blindly set the weight to
// one" rule discussed with Lemma 28 of the paper). Forcing weight one at the
// root is safe because the root lies on every path, so weighted path lengths
// remain equal.
func replacementWeight[K, V any](u *lbst.Node[K, V], w int64) int64 {
	if u.IsSentinel() {
		return 1
	}
	if w < 0 {
		return 0
	}
	return w
}

// sideOf returns the side of child below the node captured by lk, or false
// if it was not one of that node's children in the snapshot (the tree changed
// under the caller).
func sideOf[K, V any](lk llxscx.Linked[lbst.Node[K, V]], child *lbst.Node[K, V]) (d int, ok bool) {
	switch child {
	case lk.Child(0):
		return 0, true
	case lk.Child(1):
		return 1, true
	}
	return 0, false
}

// Rebalance implements lbst.Policy: it attempts to apply one rebalancing step
// at the violation located at node l, whose ancestors on the search path are
// p (parent), gp (grandparent) and ggp (great-grandparent). It follows Figure
// 15 of the paper. Violations only occur strictly below the chromatic root
// (a node placed directly below a sentinel always has weight one), so all
// three ancestors exist. A false return means no step was applied (the
// engine's cleanup will search again from the entry point).
func (pol *policy[K, V]) Rebalance(g *epoch.Guard, ggp, gp, p, l *lbst.Node[K, V]) bool {
	pol.stats.RebalanceAttempts.Add(g, 1)
	ok := pol.tryRebalanceOnce(g, ggp, gp, p, l)
	if !ok {
		pol.stats.RebalanceFails.Add(g, 1)
	}
	return ok
}

// tryRebalanceOnce is one attempt of Rebalance; r, rx and rxx are ggp, gp and
// p under the names Figure 15 gives them.
func (pol *policy[K, V]) tryRebalanceOnce(g *epoch.Guard, r, rx, rxx, l *lbst.Node[K, V]) bool {
	lkR, st := r.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	if lbst.FieldOf(lkR, rx) == nil {
		return false
	}
	lkRx, st := rx.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	dx, ok := sideOf(lkRx, rxx) // the side of rxx below rx
	if !ok {
		return false
	}
	lkRxx, st := rxx.LLX()
	if st != llxscx.Snapshot {
		return false
	}

	if l.Deco() > 1 {
		// Overweight violation at l.
		d, ok := sideOf(lkRxx, l)
		if !ok {
			return false
		}
		lkL, st := l.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.overweight(g, d, dx, lkR, lkRx, lkRxx, lkL)
	}
	// Red-red violation at l (l.Deco() == 0 and rxx.Deco() == 0).
	return pol.redRed(g, dx, lkR, lkRx, lkRxx, l)
}

// redRed selects and applies the step for a red-red violation at l, a red
// child of the red node n, which is the child of ux on side d: BLK when n's
// sibling is red as well, otherwise a single rotation (RB1) when l is the
// near child of n - the outer grandchild of ux - and a double rotation (RB2)
// when it is the far, inner one. The linked LLX evidence for u, ux and n is
// supplied by the caller.
func (pol *policy[K, V]) redRed(g *epoch.Guard, d int, lkU, lkUX, lkN llxscx.Linked[lbst.Node[K, V]], l *lbst.Node[K, V]) bool {
	f := lkUX.Child(1 - d)
	if f == nil {
		return false
	}
	if f.Deco() == 0 {
		lkF, st := f.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doBLK(g, d, lkU, lkUX, lkN, lkF)
	}
	switch l {
	case lkN.Child(d):
		return pol.doRB1(g, d, lkU, lkUX, lkN)
	case lkN.Child(1 - d):
		lkNF, st := l.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doRB2(g, d, lkU, lkUX, lkN, lkNF)
	default:
		return false
	}
}

// overweight selects and applies the rebalancing step for an overweight
// violation at n, the child of rxx on side d (Figure 16 of the paper); dx is
// the side of rxx below rx. The linked LLX evidence for r, rx, rxx and n is
// supplied by the caller.
func (pol *policy[K, V]) overweight(g *epoch.Guard, d, dx int, lkR, lkRx, lkRxx, lkN llxscx.Linked[lbst.Node[K, V]]) bool {
	rxx := lkRxx.Node()
	f := lkRxx.Child(1 - d)
	if f == nil {
		return false
	}
	switch {
	case f.Deco() == 0:
		if rxx.Deco() == 0 {
			// The red sibling under a red parent is a red-red violation
			// of its own, and is repaired first.
			return pol.redRed(g, dx, lkR, lkRx, lkRxx, f)
		}
		lkF, st := f.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		fn := lkF.Child(d)
		if fn == nil {
			return false
		}
		lkFN, st := fn.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		switch {
		case fn.Deco() > 1:
			return pol.doW1W2(g, d, lkRx, lkRxx, lkN, lkF, lkFN, &pol.stats.W1, &pol.stats.MirrorW1)
		case fn.Deco() == 0:
			// A red-red violation between f and fn, the inner grandchild
			// of rxx on f's side.
			return pol.doRB2(g, 1-d, lkRx, lkRxx, lkF, lkFN)
		default: // fn.Deco() == 1
			fnn, fnf := lkFN.Child(d), lkFN.Child(1-d)
			if fnf == nil {
				// A node we performed LLX on was modified concurrently.
				return false
			}
			if fnf.Deco() == 0 {
				lkFNF, st := fnf.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW4(g, d, lkRx, lkRxx, lkN, lkF, lkFN, lkFNF)
			}
			if fnn == nil {
				return false
			}
			if fnn.Deco() == 0 {
				lkFNN, st := fnn.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW3(g, d, lkRx, lkRxx, lkN, lkF, lkFN, lkFNN)
			}
			return pol.doW1W2(g, d, lkRx, lkRxx, lkN, lkF, lkFN, &pol.stats.W2, &pol.stats.MirrorW2)
		}
	case f.Deco() == 1:
		lkF, st := f.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		fn, ff := lkF.Child(d), lkF.Child(1-d)
		if ff == nil {
			// A node we performed LLX on was modified concurrently.
			return false
		}
		if ff.Deco() == 0 {
			lkFF, st := ff.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW5(g, d, lkRx, lkRxx, lkN, lkF, lkFF)
		}
		if fn == nil {
			return false
		}
		if fn.Deco() == 0 {
			lkFN, st := fn.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW6(g, d, lkRx, lkRxx, lkN, lkF, lkFN)
		}
		return pol.pushUp(g, d, lkRx, lkRxx, lkN, lkF, &pol.stats.PUSH, &pol.stats.MirrorPUSH)
	default: // f.Deco() > 1
		lkF, st := f.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.pushUp(g, d, lkRx, lkRxx, lkN, lkF, &pol.stats.W7, &pol.stats.MirrorW7)
	}
}

// --- Red-red transformations -------------------------------------------

// doBLK recolours ux and its two red children: both children's copies get
// weight one and ux's copy loses one unit of weight. The step is its own
// mirror image, so both sides count as BLK; d only says which of its two
// children the caller calls near.
func (pol *policy[K, V]) doBLK(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	root := s.Internal(ux, replacementWeight(u, ux.Deco()-1), d, s.Copy(lkN, 1), s.Copy(lkF, 1))
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.BLK, &pol.stats.BLK)
}

// doRB1 performs a single rotation fixing a red-red violation at the outer
// grandchild of ux on side d (nn, the near child of the red node n): n comes
// up into ux's place and ux goes down on the far side, red, taking n's inner
// subtree with it.
func (pol *policy[K, V]) doRB1(g *epoch.Guard, d int, lkU, lkUX, lkN llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, n := lkU.Node(), lkUX.Node(), lkN.Node()
	f := lkUX.Child(1 - d)
	nn, nf := lkN.Child(d), lkN.Child(1-d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.Remove(lkN)
	down := s.Internal(ux, 0, d, nf, f)
	root := s.Internal(n, replacementWeight(u, ux.Deco()), d, nn, down)
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.RB1, &pol.stats.MirrorRB1)
}

// doRB2 performs a double rotation fixing a red-red violation at the inner
// grandchild of ux on side d (nf, the far child of the red node n; Figure 17
// of the paper): nf comes up into ux's place, above n on the near side and ux
// on the far side, both red, and its two subtrees are shared out between them.
func (pol *policy[K, V]) doRB2(g *epoch.Guard, d int, lkU, lkUX, lkN, lkNF llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, n, nf := lkU.Node(), lkUX.Node(), lkN.Node(), lkNF.Node()
	f := lkUX.Child(1 - d)
	nn := lkN.Child(d)
	nfn, nff := lkNF.Child(d), lkNF.Child(1-d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.Remove(lkN)
	s.Remove(lkNF)
	near := s.Internal(n, 0, d, nn, nfn)
	far := s.Internal(ux, 0, d, nff, f)
	root := s.Internal(nf, replacementWeight(u, ux.Deco()), d, near, far)
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.RB2, &pol.stats.MirrorRB2)
}

// --- Overweight transformations ------------------------------------------
//
// In each of them n, the near child of ux, is the overweight node and gives
// up one unit of weight.

// pushUp is PUSH and W7, which build the same subtree: both children of ux
// give up one unit of weight to their parent. PUSH applies when the sibling f
// has weight one and no red child, W7 when f is overweight too.
func (pol *policy[K, V]) pushUp(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF llxscx.Linked[lbst.Node[K, V]], side0, side1 *epoch.Counter) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f := lkN.Node(), lkF.Node()
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	root := s.Internal(ux, replacementWeight(u, ux.Deco()+1), d, s.Copy(lkN, n.Deco()-1), s.Copy(lkF, f.Deco()-1))
	return s.Counted(s.Commit(lkU, ux, root), d, side0, side1)
}

// doW1W2 is W1 and W2, which build the same subtree: the sibling f is red and
// its near child fn, the nephew next to n, is not. f comes up into ux's place
// and ux goes down on the near side with weight one, above n and fn, each one
// unit lighter. In W1 fn is overweight like n; in W2 it has weight one and no
// red child, and comes out red.
func (pol *policy[K, V]) doW1W2(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF, lkFN llxscx.Linked[lbst.Node[K, V]], side0, side1 *epoch.Counter) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f, fn := lkN.Node(), lkF.Node(), lkFN.Node()
	ff := lkF.Child(1 - d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	s.Remove(lkFN)
	down := s.Internal(ux, 1, d, s.Copy(lkN, n.Deco()-1), s.Copy(lkFN, fn.Deco()-1))
	root := s.Internal(f, replacementWeight(u, ux.Deco()), d, down, ff)
	return s.Counted(s.Commit(lkU, ux, root), d, side0, side1)
}

// doW3 handles a red sibling f whose near child fn has weight one and a red
// near child fnn: fnn comes up, red, between ux (near side, above n and
// fnn's near subtree) and fn (far side, above fnn's far subtree and its
// own), both with weight one, all of it below f in ux's place.
func (pol *policy[K, V]) doW3(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF, lkFN, lkFNN llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f, fn, fnn := lkN.Node(), lkF.Node(), lkFN.Node(), lkFNN.Node()
	ff := lkF.Child(1 - d)
	fnf := lkFN.Child(1 - d)
	fnnn, fnnf := lkFNN.Child(d), lkFNN.Child(1-d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	s.Remove(lkFN)
	s.Remove(lkFNN)
	near := s.Internal(ux, 1, d, s.Copy(lkN, n.Deco()-1), fnnn)
	far := s.Internal(fn, 1, d, fnnf, fnf)
	mid := s.Internal(fnn, 0, d, near, far)
	root := s.Internal(f, replacementWeight(u, ux.Deco()), d, mid, ff)
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.W3, &pol.stats.MirrorW3)
}

// doW4 handles a red sibling f whose near child fn has weight one and a red
// far child fnf: fn comes up into ux's place, above ux (near side, weight
// one, above n and fn's near subtree) and f (far side, still red, above a
// weight-one copy of fnf and its own far subtree).
func (pol *policy[K, V]) doW4(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF, lkFN, lkFNF llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f, fn := lkN.Node(), lkF.Node(), lkFN.Node()
	ff := lkF.Child(1 - d)
	fnn := lkFN.Child(d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	s.Remove(lkFN)
	s.Remove(lkFNF)
	near := s.Internal(ux, 1, d, s.Copy(lkN, n.Deco()-1), fnn)
	far := s.Internal(f, 0, d, s.Copy(lkFNF, 1), ff)
	root := s.Internal(fn, replacementWeight(u, ux.Deco()), d, near, far)
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.W4, &pol.stats.MirrorW4)
}

// doW5 handles a sibling f of weight one with a red far child ff: f comes up
// into ux's place, above ux (near side, weight one, above n and f's near
// subtree) and a weight-one copy of ff.
func (pol *policy[K, V]) doW5(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF, lkFF llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f := lkN.Node(), lkF.Node()
	fn := lkF.Child(d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	s.Remove(lkFF)
	near := s.Internal(ux, 1, d, s.Copy(lkN, n.Deco()-1), fn)
	root := s.Internal(f, replacementWeight(u, ux.Deco()), d, near, s.Copy(lkFF, 1))
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.W5, &pol.stats.MirrorW5)
}

// doW6 handles a sibling f of weight one with a red near child fn: fn comes
// up into ux's place, above ux (near side, above n and fn's near subtree) and
// f (far side, above fn's far subtree and its own), both with weight one.
func (pol *policy[K, V]) doW6(g *epoch.Guard, d int, lkU, lkUX, lkN, lkF, lkFN llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	n, f, fn := lkN.Node(), lkF.Node(), lkFN.Node()
	ff := lkF.Child(1 - d)
	fnn, fnf := lkFN.Child(d), lkFN.Child(1-d)
	s := lbst.Step[K, V]{Tree: pol.eng, Guard: g}
	s.Keep(lkU)
	s.Remove(lkUX)
	s.RemovePair(d, lkN, lkF)
	s.Remove(lkFN)
	near := s.Internal(ux, 1, d, s.Copy(lkN, n.Deco()-1), fnn)
	far := s.Internal(f, 1, d, fnf, ff)
	root := s.Internal(fn, replacementWeight(u, ux.Deco()), d, near, far)
	return s.Counted(s.Commit(lkU, ux, root), d, &pol.stats.W6, &pol.stats.MirrorW6)
}
