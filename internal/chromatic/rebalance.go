package chromatic

import (
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/llxscx"
)

// This file implements the 22 localized rebalancing steps of the chromatic
// tree (Boyar, Fagerberg and Larsen's steps, as adapted by Brown, Ellen and
// Ruppert in Figure 11 of the paper) and the decision procedure that selects
// which step to apply at a violation (Figures 14-16).
//
// Naming follows the paper: in each transformation u is the node whose child
// pointer is changed, ux is the child of u being replaced (the root of the
// removed subgraph), and deeper nodes append l/r for left/right (uxl, uxr,
// uxrl, ...). Nodes named n, nl, nr, nll, ... are freshly drawn from the
// tree's node pool. Each transformation preserves the binary search tree
// order and the equality of weighted path lengths, never increases the
// number of violations, and keeps any remaining violation on the search path
// of the key whose insertion or deletion created it (property VIOL of
// Section 5.2).
//
// Every step runs under the invoking operation's pinned epoch guard g: its
// SCX goes through the engine's RebalanceSCX (which retires the removed nodes
// on success), and on failure every fresh node is returned to the pool with
// ReleaseFresh - it was never published, so no grace period is needed. A
// removed node reappears in the new subtree only as a copy (CopyNode, which
// aliases a leaf's value cell) or as a fresh node with its key
// (internalLike); subtrees hanging off the removed nodes are reused as
// children of fresh nodes.

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

// internalLike creates a fresh internal node carrying src's routing key and
// sentinel flag, with the given weight and children.
func (pol *policy[K, V]) internalLike(src *lbst.Node[K, V], w int64, left, right *lbst.Node[K, V]) *lbst.Node[K, V] {
	return pol.eng.InternalNode(src.K, w, src.IsSentinel(), left, right)
}

// Rebalance implements lbst.Policy: it attempts to apply one rebalancing step
// at the violation located at node l, whose ancestors on the search path are
// p (parent), gp (grandparent) and ggp (great-grandparent). It follows Figure
// 15 of the paper. Violations only occur strictly below the chromatic root
// (a node placed directly below a sentinel always has weight one), so all
// three ancestors exist. A false return means no step was applied (the
// engine's cleanup will search again from the entry point).
func (pol *policy[K, V]) Rebalance(g *epoch.Guard, ggp, gp, p, l *lbst.Node[K, V]) bool {
	pol.stats.RebalanceAttempts.Add(1)
	ok := pol.tryRebalanceOnce(g, ggp, gp, p, l)
	if !ok {
		pol.stats.RebalanceFails.Add(1)
	}
	return ok
}

func (pol *policy[K, V]) tryRebalanceOnce(g *epoch.Guard, ggp, gp, p, l *lbst.Node[K, V]) bool {
	r := ggp
	lkR, st := r.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	rl, rr := lkR.Child(0), lkR.Child(1)

	rx := gp
	if rx != rl && rx != rr {
		return false
	}
	lkRx, st := rx.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	rxl, rxr := lkRx.Child(0), lkRx.Child(1)

	rxx := p
	if rxx != rxl && rxx != rxr {
		return false
	}
	lkRxx, st := rxx.LLX()
	if st != llxscx.Snapshot {
		return false
	}
	rxxl, rxxr := lkRxx.Child(0), lkRxx.Child(1)

	if l.Deco() > 1 {
		// Overweight violation at l.
		switch l {
		case rxxl:
			lkRxxl, st := rxxl.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.overweightLeft(g, lkR, lkRx, lkRxx, lkRxxl, rl, rr, rxl, rxr, rxxr)
		case rxxr:
			lkRxxr, st := rxxr.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.overweightRight(g, lkR, lkRx, lkRxx, lkRxxr, rl, rr, rxl, rxr, rxxl)
		default:
			return false
		}
	}

	// Red-red violation at l (l.Deco() == 0 and rxx.Deco() == 0).
	if rxx == rxl {
		// The red parent is a left child.
		if rxr != nil && rxr.Deco() == 0 {
			lkRxr, st := rxr.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
		}
		switch l {
		case rxxl:
			return pol.doRB1(g, lkR, lkRx, lkRxx)
		case rxxr:
			lkRxxr, st := rxxr.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doRB2(g, lkR, lkRx, lkRxx, lkRxxr)
		default:
			return false
		}
	}
	// The red parent is a right child.
	if rxl != nil && rxl.Deco() == 0 {
		lkRxl, st := rxl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
	}
	switch l {
	case rxxr:
		return pol.doRB1s(g, lkR, lkRx, lkRxx)
	case rxxl:
		lkRxxl, st := rxxl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doRB2s(g, lkR, lkRx, lkRxx, lkRxxl)
	default:
		return false
	}
}

// overweightLeft selects and applies the rebalancing step for an overweight
// violation at rxxl, the left child of rxx (Figure 16 of the paper). The
// linked LLX evidence for r, rx, rxx and rxxl is supplied by the caller.
func (pol *policy[K, V]) overweightLeft(g *epoch.Guard, lkR, lkRx, lkRxx, lkRxxl llxscx.Linked[lbst.Node[K, V]], rl, rr, rxl, rxr, rxxr *lbst.Node[K, V]) bool {
	_ = rl
	_ = rr
	rxx := lkRxx.Node()
	if rxxr == nil {
		return false
	}
	switch {
	case rxxr.Deco() == 0:
		if rxx.Deco() == 0 {
			if rxx == rxl {
				if rxr == nil {
					return false
				}
				if rxr.Deco() == 0 {
					lkRxr, st := rxr.LLX()
					if st != llxscx.Snapshot {
						return false
					}
					return pol.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
				}
				lkRxxr, st := rxxr.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doRB2(g, lkR, lkRx, lkRxx, lkRxxr)
			}
			// rxx == rxr
			if rxl == nil {
				return false
			}
			if rxl.Deco() == 0 {
				lkRxl, st := rxl.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
			}
			return pol.doRB1s(g, lkR, lkRx, lkRxx)
		}
		// rxx.Deco() > 0
		lkRxxr, st := rxxr.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		rxxrl := lkRxxr.Child(0)
		if rxxrl == nil {
			return false
		}
		lkRxxrl, st := rxxrl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		switch {
		case rxxrl.Deco() > 1:
			return pol.doW1(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		case rxxrl.Deco() == 0:
			return pol.doRB2s(g, lkRx, lkRxx, lkRxxr, lkRxxrl)
		default: // rxxrl.Deco() == 1
			rxxrll, rxxrlr := lkRxxrl.Child(0), lkRxxrl.Child(1)
			if rxxrlr == nil {
				// A node we performed LLX on was modified concurrently.
				return false
			}
			if rxxrlr.Deco() == 0 {
				lkRxxrlr, st := rxxrlr.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW4(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl, lkRxxrlr)
			}
			if rxxrll == nil {
				return false
			}
			if rxxrll.Deco() == 0 {
				lkRxxrll, st := rxxrll.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW3(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl, lkRxxrll)
			}
			return pol.doW2(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		}
	case rxxr.Deco() == 1:
		lkRxxr, st := rxxr.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		rxxrl, rxxrr := lkRxxr.Child(0), lkRxxr.Child(1)
		if rxxrr == nil {
			// A node we performed LLX on was modified concurrently.
			return false
		}
		if rxxrr.Deco() == 0 {
			lkRxxrr, st := rxxrr.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW5(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrr)
		}
		if rxxrl == nil {
			return false
		}
		if rxxrl.Deco() == 0 {
			lkRxxrl, st := rxxrl.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW6(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		}
		return pol.doPUSH(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	default: // rxxr.Deco() > 1
		lkRxxr, st := rxxr.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doW7(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	}
}

// overweightRight is the mirror image of overweightLeft: it handles an
// overweight violation at rxxr, the right child of rxx.
func (pol *policy[K, V]) overweightRight(g *epoch.Guard, lkR, lkRx, lkRxx, lkRxxr llxscx.Linked[lbst.Node[K, V]], rl, rr, rxl, rxr, rxxl *lbst.Node[K, V]) bool {
	_ = rl
	_ = rr
	rxx := lkRxx.Node()
	if rxxl == nil {
		return false
	}
	switch {
	case rxxl.Deco() == 0:
		if rxx.Deco() == 0 {
			if rxx == rxr {
				if rxl == nil {
					return false
				}
				if rxl.Deco() == 0 {
					lkRxl, st := rxl.LLX()
					if st != llxscx.Snapshot {
						return false
					}
					return pol.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
				}
				lkRxxl, st := rxxl.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doRB2s(g, lkR, lkRx, lkRxx, lkRxxl)
			}
			// rxx == rxl
			if rxr == nil {
				return false
			}
			if rxr.Deco() == 0 {
				lkRxr, st := rxr.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
			}
			return pol.doRB1(g, lkR, lkRx, lkRxx)
		}
		// rxx.Deco() > 0
		lkRxxl, st := rxxl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		rxxlr := lkRxxl.Child(1)
		if rxxlr == nil {
			return false
		}
		lkRxxlr, st := rxxlr.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		switch {
		case rxxlr.Deco() > 1:
			return pol.doW1s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		case rxxlr.Deco() == 0:
			return pol.doRB2(g, lkRx, lkRxx, lkRxxl, lkRxxlr)
		default: // rxxlr.Deco() == 1
			rxxlrl, rxxlrr := lkRxxlr.Child(0), lkRxxlr.Child(1)
			if rxxlrl == nil {
				return false
			}
			if rxxlrl.Deco() == 0 {
				lkRxxlrl, st := rxxlrl.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW4s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr, lkRxxlrl)
			}
			if rxxlrr == nil {
				return false
			}
			if rxxlrr.Deco() == 0 {
				lkRxxlrr, st := rxxlrr.LLX()
				if st != llxscx.Snapshot {
					return false
				}
				return pol.doW3s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr, lkRxxlrr)
			}
			return pol.doW2s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		}
	case rxxl.Deco() == 1:
		lkRxxl, st := rxxl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		rxxll, rxxlr := lkRxxl.Child(0), lkRxxl.Child(1)
		if rxxll == nil {
			return false
		}
		if rxxll.Deco() == 0 {
			lkRxxll, st := rxxll.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW5s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxll)
		}
		if rxxlr == nil {
			return false
		}
		if rxxlr.Deco() == 0 {
			lkRxxlr, st := rxxlr.LLX()
			if st != llxscx.Snapshot {
				return false
			}
			return pol.doW6s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		}
		return pol.doPUSHs(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	default: // rxxl.Deco() > 1
		lkRxxl, st := rxxl.LLX()
		if st != llxscx.Snapshot {
			return false
		}
		return pol.doW7s(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	}
}

// --- Red-red transformations -------------------------------------------

// doBLK recolours ux and its two red children: both children's copies get
// weight one and ux's copy loses one unit of weight (its own mirror image).
func (pol *policy[K, V]) doBLK(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	nl := pol.eng.CopyNode(lkUXL, 1)
	nr := pol.eng.CopyNode(lkUXR, 1)
	n := pol.internalLike(ux, replacementWeight(u, ux.Deco()-1), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, lkUXL.Node(), lkUXR.Node()}
	if !pol.eng.RebalanceSCX(g, &v, 4, &r, 3, fld, ux, n) {
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.BLK.Add(1)
	return true
}

// doRB1 performs a single rotation fixing a red-red violation at the
// left-left grandchild of u.
func (pol *policy[K, V]) doRB1(g *epoch.Guard, lkU, lkUX, lkUXL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, uxl := lkU.Node(), lkUX.Node(), lkUXL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxr := lkUX.Child(1)
	uxll, uxlr := lkUXL.Child(0), lkUXL.Child(1)
	nr := pol.internalLike(ux, 0, uxlr, uxr)
	n := pol.internalLike(uxl, replacementWeight(u, ux.Deco()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl}
	if !pol.eng.RebalanceSCX(g, &v, 3, &r, 2, fld, ux, n) {
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.RB1.Add(1)
	return true
}

// doRB1s is the mirror image of doRB1 (red-red violation at the right-right
// grandchild of u).
func (pol *policy[K, V]) doRB1s(g *epoch.Guard, lkU, lkUX, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, uxr := lkU.Node(), lkUX.Node(), lkUXR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxl := lkUX.Child(0)
	uxrl, uxrr := lkUXR.Child(0), lkUXR.Child(1)
	nl := pol.internalLike(ux, 0, uxl, uxrl)
	n := pol.internalLike(uxr, replacementWeight(u, ux.Deco()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxr}
	if !pol.eng.RebalanceSCX(g, &v, 3, &r, 2, fld, ux, n) {
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorRB1.Add(1)
	return true
}

// doRB2 performs a double rotation fixing a red-red violation at the
// left-right grandchild of u (Figure 17 of the paper).
func (pol *policy[K, V]) doRB2(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXLR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, uxl, uxlr := lkU.Node(), lkUX.Node(), lkUXL.Node(), lkUXLR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxr := lkUX.Child(1)
	uxll := lkUXL.Child(0)
	uxlrl, uxlrr := lkUXLR.Child(0), lkUXLR.Child(1)
	nl := pol.internalLike(uxl, 0, uxll, uxlrl)
	nr := pol.internalLike(ux, 0, uxlrr, uxr)
	n := pol.internalLike(uxlr, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXLR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxlr}
	if !pol.eng.RebalanceSCX(g, &v, 4, &r, 3, fld, ux, n) {
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.RB2.Add(1)
	return true
}

// doRB2s is the mirror image of doRB2 (violation at the right-left
// grandchild of u).
func (pol *policy[K, V]) doRB2s(g *epoch.Guard, lkU, lkUX, lkUXR, lkUXRL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux, uxr, uxrl := lkU.Node(), lkUX.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxl := lkUX.Child(0)
	uxrr := lkUXR.Child(1)
	uxrll, uxrlr := lkUXRL.Child(0), lkUXRL.Child(1)
	nl := pol.internalLike(ux, 0, uxl, uxrll)
	nr := pol.internalLike(uxr, 0, uxrlr, uxrr)
	n := pol.internalLike(uxrl, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxr, uxrl}
	if !pol.eng.RebalanceSCX(g, &v, 4, &r, 3, fld, ux, n) {
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorRB2.Add(1)
	return true
}

// --- Overweight transformations ------------------------------------------

// pushUp implements the construction shared by PUSH and W7: both children
// give up one unit of weight to their parent.
func (pol *policy[K, V]) pushUp(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]], counter *atomic.Int64) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr := lkUXL.Node(), lkUXR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	nl := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	n := pol.internalLike(ux, replacementWeight(u, ux.Deco()+1), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr}
	if !pol.eng.RebalanceSCX(g, &v, 4, &r, 3, fld, ux, n) {
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	counter.Add(1)
	return true
}

// doPUSH handles an overweight left child whose sibling has weight one and
// no red children.
func (pol *policy[K, V]) doPUSH(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	return pol.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &pol.stats.PUSH)
}

// doPUSHs is the mirror image of doPUSH.
func (pol *policy[K, V]) doPUSHs(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	return pol.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &pol.stats.MirrorPUSH)
}

// doW7 handles the case where both children of ux are overweight.
func (pol *policy[K, V]) doW7(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	return pol.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &pol.stats.W7)
}

// doW7s is the mirror image of doW7.
func (pol *policy[K, V]) doW7s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[lbst.Node[K, V]]) bool {
	return pol.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &pol.stats.MirrorW7)
}

// doW1 handles an overweight uxl whose sibling uxr is red and whose nephew
// uxrl is overweight as well.
func (pol *policy[K, V]) doW1(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	nll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nlr := pol.eng.CopyNode(lkUXRL, uxrl.Deco()-1)
	nl := pol.internalLike(ux, 1, nll, nlr)
	n := pol.internalLike(uxr, replacementWeight(u, ux.Deco()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrl}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nlr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W1.Add(1)
	return true
}

// doW1s is the mirror image of doW1.
func (pol *policy[K, V]) doW1s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	nrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nrl := pol.eng.CopyNode(lkUXLR, uxlr.Deco()-1)
	nr := pol.internalLike(ux, 1, nrl, nrr)
	n := pol.internalLike(uxl, replacementWeight(u, ux.Deco()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxlr}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nrl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW1.Add(1)
	return true
}

// doW2 handles an overweight uxl with a red sibling uxr whose left child has
// weight one and two non-red children.
func (pol *policy[K, V]) doW2(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	nll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nlr := pol.eng.CopyNode(lkUXRL, 0)
	nl := pol.internalLike(ux, 1, nll, nlr)
	n := pol.internalLike(uxr, replacementWeight(u, ux.Deco()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrl}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nlr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W2.Add(1)
	return true
}

// doW2s is the mirror image of doW2.
func (pol *policy[K, V]) doW2s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	nrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nrl := pol.eng.CopyNode(lkUXLR, 0)
	nr := pol.internalLike(ux, 1, nrl, nrr)
	n := pol.internalLike(uxl, replacementWeight(u, ux.Deco()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxlr}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nrl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW2.Add(1)
	return true
}

// doW3 handles an overweight uxl with red sibling uxr, where uxrl has weight
// one and a red left child uxrll.
func (pol *policy[K, V]) doW3(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl, uxrll := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node(), lkUXRLL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrlr := lkUXRL.Child(1)
	uxrlll, uxrllr := lkUXRLL.Child(0), lkUXRLL.Child(1)
	nlll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nll := pol.internalLike(ux, 1, nlll, uxrlll)
	nlr := pol.internalLike(uxrl, 1, uxrllr, uxrlr)
	nl := pol.internalLike(uxrll, 0, nll, nlr)
	n := pol.internalLike(uxr, replacementWeight(u, ux.Deco()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrl, uxrll}
	if !pol.eng.RebalanceSCX(g, &v, 6, &r, 5, fld, ux, n) {
		pol.eng.ReleaseFresh(nlll)
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nlr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W3.Add(1)
	return true
}

// doW3s is the mirror image of doW3.
func (pol *policy[K, V]) doW3s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr, uxlrr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node(), lkUXLRR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrl := lkUXLR.Child(0)
	uxlrrl, uxlrrr := lkUXLRR.Child(0), lkUXLRR.Child(1)
	nrrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nrr := pol.internalLike(ux, 1, uxlrrr, nrrr)
	nrl := pol.internalLike(uxlr, 1, uxlrl, uxlrrl)
	nr := pol.internalLike(uxlrr, 0, nrl, nrr)
	n := pol.internalLike(uxl, replacementWeight(u, ux.Deco()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxlr, uxlrr}
	if !pol.eng.RebalanceSCX(g, &v, 6, &r, 5, fld, ux, n) {
		pol.eng.ReleaseFresh(nrrr)
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nrl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW3.Add(1)
	return true
}

// doW4 handles an overweight uxl with red sibling uxr, where uxrl has weight
// one and a red right child uxrlr.
func (pol *policy[K, V]) doW4(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl, uxrlr := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node(), lkUXRLR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrll := lkUXRL.Child(0)
	nll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nl := pol.internalLike(ux, 1, nll, uxrll)
	nrl := pol.eng.CopyNode(lkUXRLR, 1)
	nr := pol.internalLike(uxr, 0, nrl, uxrr)
	n := pol.internalLike(uxrl, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrl, uxrlr}
	if !pol.eng.RebalanceSCX(g, &v, 6, &r, 5, fld, ux, n) {
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nrl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W4.Add(1)
	return true
}

// doW4s is the mirror image of doW4.
func (pol *policy[K, V]) doW4s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr, uxlrl := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node(), lkUXLRL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrr := lkUXLR.Child(1)
	nrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nr := pol.internalLike(ux, 1, uxlrr, nrr)
	nlr := pol.eng.CopyNode(lkUXLRL, 1)
	nl := pol.internalLike(uxl, 0, uxll, nlr)
	n := pol.internalLike(uxlr, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxlr, uxlrl}
	if !pol.eng.RebalanceSCX(g, &v, 6, &r, 5, fld, ux, n) {
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(nlr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW4.Add(1)
	return true
}

// doW5 handles an overweight uxl whose sibling uxr has weight one and a red
// right child uxrr.
func (pol *policy[K, V]) doW5(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrr := lkUXL.Node(), lkUXR.Node(), lkUXRR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrl := lkUXR.Child(0)
	nll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nl := pol.internalLike(ux, 1, nll, uxrl)
	nr := pol.eng.CopyNode(lkUXRR, 1)
	n := pol.internalLike(uxr, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrr}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W5.Add(1)
	return true
}

// doW5s is the mirror image of doW5.
func (pol *policy[K, V]) doW5s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxll := lkUXL.Node(), lkUXR.Node(), lkUXLL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxlr := lkUXL.Child(1)
	nrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nr := pol.internalLike(ux, 1, uxlr, nrr)
	nl := pol.eng.CopyNode(lkUXLL, 1)
	n := pol.internalLike(uxl, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxll}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW5.Add(1)
	return true
}

// doW6 handles an overweight uxl whose sibling uxr has weight one and a red
// left child uxrl.
func (pol *policy[K, V]) doW6(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrll, uxrlr := lkUXRL.Child(0), lkUXRL.Child(1)
	nll := pol.eng.CopyNode(lkUXL, uxl.Deco()-1)
	nl := pol.internalLike(ux, 1, nll, uxrll)
	nr := pol.internalLike(uxr, 1, uxrlr, uxrr)
	n := pol.internalLike(uxrl, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxrl}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nll)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.W6.Add(1)
	return true
}

// doW6s is the mirror image of doW6.
func (pol *policy[K, V]) doW6s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[lbst.Node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := lbst.FieldOf(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrl, uxlrr := lkUXLR.Child(0), lkUXLR.Child(1)
	nrr := pol.eng.CopyNode(lkUXR, uxr.Deco()-1)
	nr := pol.internalLike(ux, 1, uxlrr, nrr)
	nl := pol.internalLike(uxl, 1, uxll, uxlrl)
	n := pol.internalLike(uxlr, replacementWeight(u, ux.Deco()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[lbst.Node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*lbst.Node[K, V]{ux, uxl, uxr, uxlr}
	if !pol.eng.RebalanceSCX(g, &v, 5, &r, 4, fld, ux, n) {
		pol.eng.ReleaseFresh(nrr)
		pol.eng.ReleaseFresh(nr)
		pol.eng.ReleaseFresh(nl)
		pol.eng.ReleaseFresh(n)
		return false
	}
	pol.stats.MirrorW6.Add(1)
	return true
}
