package chromatic

import (
	"sync/atomic"

	"repro/internal/epoch"
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
// SCX goes through the pooled t.scx (which retires the removed nodes on
// success), and on failure every fresh node is returned to the pool with
// releaseFresh - it was never published, so no grace period is needed.

// fieldFor returns the mutable field of u (according to lkU's snapshot) that
// pointed to child, or nil if child was not a child of u in that snapshot.
func fieldFor[K, V any](lkU llxscx.Linked[node[K, V]], child *node[K, V]) *atomic.Pointer[node[K, V]] {
	u := lkU.Node()
	if lkU.Child(0) == child {
		return &u.left
	}
	if lkU.Child(1) == child {
		return &u.right
	}
	return nil
}

// replacementWeight returns the weight of the node that replaces ux as a
// child of u: the computed weight w, or 1 when u is a sentinel so that the
// chromatic root always keeps weight one (the "blindly set the weight to
// one" rule discussed with Lemma 28 of the paper). Forcing weight one at the
// root is safe because the root lies on every path, so weighted path lengths
// remain equal.
func replacementWeight[K, V any](u *node[K, V], w int32) int32 {
	if u.IsSentinel() {
		return 1
	}
	if w < 0 {
		return 0
	}
	return w
}

// tryRebalance attempts to apply one rebalancing step at the violation
// located at node l, whose ancestors on the search path are p (parent),
// gp (grandparent) and ggp (great-grandparent). It follows Figure 15 of the
// paper. A false return means no step was applied (the caller's Cleanup will
// search again from the entry point).
func (t *Tree[K, V]) tryRebalance(g *epoch.Guard, ggp, gp, p, l *node[K, V]) bool {
	t.stats.RebalanceAttempts.Add(1)
	ok := t.tryRebalanceOnce(g, ggp, gp, p, l)
	if !ok {
		t.stats.RebalanceFails.Add(1)
	}
	return ok
}

func (t *Tree[K, V]) tryRebalanceOnce(g *epoch.Guard, ggp, gp, p, l *node[K, V]) bool {
	r := ggp
	lkR, st := llxscx.LLX(r)
	if st != llxscx.Snapshot {
		return false
	}
	rl, rr := lkR.Child(0), lkR.Child(1)

	rx := gp
	if rx != rl && rx != rr {
		return false
	}
	lkRx, st := llxscx.LLX(rx)
	if st != llxscx.Snapshot {
		return false
	}
	rxl, rxr := lkRx.Child(0), lkRx.Child(1)

	rxx := p
	if rxx != rxl && rxx != rxr {
		return false
	}
	lkRxx, st := llxscx.LLX(rxx)
	if st != llxscx.Snapshot {
		return false
	}
	rxxl, rxxr := lkRxx.Child(0), lkRxx.Child(1)

	if l.w() > 1 {
		// Overweight violation at l.
		switch l {
		case rxxl:
			lkRxxl, st := llxscx.LLX(rxxl)
			if st != llxscx.Snapshot {
				return false
			}
			return t.overweightLeft(g, lkR, lkRx, lkRxx, lkRxxl, rl, rr, rxl, rxr, rxxr)
		case rxxr:
			lkRxxr, st := llxscx.LLX(rxxr)
			if st != llxscx.Snapshot {
				return false
			}
			return t.overweightRight(g, lkR, lkRx, lkRxx, lkRxxr, rl, rr, rxl, rxr, rxxl)
		default:
			return false
		}
	}

	// Red-red violation at l (l.w() == 0 and rxx.w() == 0).
	if rxx == rxl {
		// The red parent is a left child.
		if rxr != nil && rxr.w() == 0 {
			lkRxr, st := llxscx.LLX(rxr)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
		}
		switch l {
		case rxxl:
			return t.doRB1(g, lkR, lkRx, lkRxx)
		case rxxr:
			lkRxxr, st := llxscx.LLX(rxxr)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doRB2(g, lkR, lkRx, lkRxx, lkRxxr)
		default:
			return false
		}
	}
	// The red parent is a right child.
	if rxl != nil && rxl.w() == 0 {
		lkRxl, st := llxscx.LLX(rxl)
		if st != llxscx.Snapshot {
			return false
		}
		return t.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
	}
	switch l {
	case rxxr:
		return t.doRB1s(g, lkR, lkRx, lkRxx)
	case rxxl:
		lkRxxl, st := llxscx.LLX(rxxl)
		if st != llxscx.Snapshot {
			return false
		}
		return t.doRB2s(g, lkR, lkRx, lkRxx, lkRxxl)
	default:
		return false
	}
}

// overweightLeft selects and applies the rebalancing step for an overweight
// violation at rxxl, the left child of rxx (Figure 16 of the paper). The
// linked LLX evidence for r, rx, rxx and rxxl is supplied by the caller.
func (t *Tree[K, V]) overweightLeft(g *epoch.Guard, lkR, lkRx, lkRxx, lkRxxl llxscx.Linked[node[K, V]], rl, rr, rxl, rxr, rxxr *node[K, V]) bool {
	_ = rl
	_ = rr
	rxx := lkRxx.Node()
	if rxxr == nil {
		return false
	}
	switch {
	case rxxr.w() == 0:
		if rxx.w() == 0 {
			if rxx == rxl {
				if rxr == nil {
					return false
				}
				if rxr.w() == 0 {
					lkRxr, st := llxscx.LLX(rxr)
					if st != llxscx.Snapshot {
						return false
					}
					return t.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
				}
				lkRxxr, st := llxscx.LLX(rxxr)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doRB2(g, lkR, lkRx, lkRxx, lkRxxr)
			}
			// rxx == rxr
			if rxl == nil {
				return false
			}
			if rxl.w() == 0 {
				lkRxl, st := llxscx.LLX(rxl)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
			}
			return t.doRB1s(g, lkR, lkRx, lkRxx)
		}
		// rxx.w() > 0
		lkRxxr, st := llxscx.LLX(rxxr)
		if st != llxscx.Snapshot {
			return false
		}
		rxxrl := lkRxxr.Child(0)
		if rxxrl == nil {
			return false
		}
		lkRxxrl, st := llxscx.LLX(rxxrl)
		if st != llxscx.Snapshot {
			return false
		}
		switch {
		case rxxrl.w() > 1:
			return t.doW1(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		case rxxrl.w() == 0:
			return t.doRB2s(g, lkRx, lkRxx, lkRxxr, lkRxxrl)
		default: // rxxrl.w() == 1
			rxxrll, rxxrlr := lkRxxrl.Child(0), lkRxxrl.Child(1)
			if rxxrlr == nil {
				// A node we performed LLX on was modified concurrently.
				return false
			}
			if rxxrlr.w() == 0 {
				lkRxxrlr, st := llxscx.LLX(rxxrlr)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doW4(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl, lkRxxrlr)
			}
			if rxxrll == nil {
				return false
			}
			if rxxrll.w() == 0 {
				lkRxxrll, st := llxscx.LLX(rxxrll)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doW3(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl, lkRxxrll)
			}
			return t.doW2(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		}
	case rxxr.w() == 1:
		lkRxxr, st := llxscx.LLX(rxxr)
		if st != llxscx.Snapshot {
			return false
		}
		rxxrl, rxxrr := lkRxxr.Child(0), lkRxxr.Child(1)
		if rxxrr == nil {
			// A node we performed LLX on was modified concurrently.
			return false
		}
		if rxxrr.w() == 0 {
			lkRxxrr, st := llxscx.LLX(rxxrr)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doW5(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrr)
		}
		if rxxrl == nil {
			return false
		}
		if rxxrl.w() == 0 {
			lkRxxrl, st := llxscx.LLX(rxxrl)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doW6(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxrl)
		}
		return t.doPUSH(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	default: // rxxr.w() > 1
		lkRxxr, st := llxscx.LLX(rxxr)
		if st != llxscx.Snapshot {
			return false
		}
		return t.doW7(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	}
}

// overweightRight is the mirror image of overweightLeft: it handles an
// overweight violation at rxxr, the right child of rxx.
func (t *Tree[K, V]) overweightRight(g *epoch.Guard, lkR, lkRx, lkRxx, lkRxxr llxscx.Linked[node[K, V]], rl, rr, rxl, rxr, rxxl *node[K, V]) bool {
	_ = rl
	_ = rr
	rxx := lkRxx.Node()
	if rxxl == nil {
		return false
	}
	switch {
	case rxxl.w() == 0:
		if rxx.w() == 0 {
			if rxx == rxr {
				if rxl == nil {
					return false
				}
				if rxl.w() == 0 {
					lkRxl, st := llxscx.LLX(rxl)
					if st != llxscx.Snapshot {
						return false
					}
					return t.doBLK(g, lkR, lkRx, lkRxl, lkRxx)
				}
				lkRxxl, st := llxscx.LLX(rxxl)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doRB2s(g, lkR, lkRx, lkRxx, lkRxxl)
			}
			// rxx == rxl
			if rxr == nil {
				return false
			}
			if rxr.w() == 0 {
				lkRxr, st := llxscx.LLX(rxr)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doBLK(g, lkR, lkRx, lkRxx, lkRxr)
			}
			return t.doRB1(g, lkR, lkRx, lkRxx)
		}
		// rxx.w() > 0
		lkRxxl, st := llxscx.LLX(rxxl)
		if st != llxscx.Snapshot {
			return false
		}
		rxxlr := lkRxxl.Child(1)
		if rxxlr == nil {
			return false
		}
		lkRxxlr, st := llxscx.LLX(rxxlr)
		if st != llxscx.Snapshot {
			return false
		}
		switch {
		case rxxlr.w() > 1:
			return t.doW1s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		case rxxlr.w() == 0:
			return t.doRB2(g, lkRx, lkRxx, lkRxxl, lkRxxlr)
		default: // rxxlr.w() == 1
			rxxlrl, rxxlrr := lkRxxlr.Child(0), lkRxxlr.Child(1)
			if rxxlrl == nil {
				return false
			}
			if rxxlrl.w() == 0 {
				lkRxxlrl, st := llxscx.LLX(rxxlrl)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doW4s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr, lkRxxlrl)
			}
			if rxxlrr == nil {
				return false
			}
			if rxxlrr.w() == 0 {
				lkRxxlrr, st := llxscx.LLX(rxxlrr)
				if st != llxscx.Snapshot {
					return false
				}
				return t.doW3s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr, lkRxxlrr)
			}
			return t.doW2s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		}
	case rxxl.w() == 1:
		lkRxxl, st := llxscx.LLX(rxxl)
		if st != llxscx.Snapshot {
			return false
		}
		rxxll, rxxlr := lkRxxl.Child(0), lkRxxl.Child(1)
		if rxxll == nil {
			return false
		}
		if rxxll.w() == 0 {
			lkRxxll, st := llxscx.LLX(rxxll)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doW5s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxll)
		}
		if rxxlr == nil {
			return false
		}
		if rxxlr.w() == 0 {
			lkRxxlr, st := llxscx.LLX(rxxlr)
			if st != llxscx.Snapshot {
				return false
			}
			return t.doW6s(g, lkRx, lkRxx, lkRxxl, lkRxxr, lkRxxlr)
		}
		return t.doPUSHs(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	default: // rxxl.w() > 1
		lkRxxl, st := llxscx.LLX(rxxl)
		if st != llxscx.Snapshot {
			return false
		}
		return t.doW7s(g, lkRx, lkRxx, lkRxxl, lkRxxr)
	}
}

// --- Red-red transformations -------------------------------------------

// doBLK recolours ux and its two red children: both children's copies get
// weight one and ux's copy loses one unit of weight (its own mirror image).
func (t *Tree[K, V]) doBLK(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	nl := t.copyNode(lkUXL, 1)
	nr := t.copyNode(lkUXR, 1)
	n := t.internalLike(ux, replacementWeight(u, ux.w()-1), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR}
	r := [llxscx.MaxV]*node[K, V]{ux, lkUXL.Node(), lkUXR.Node()}
	if !t.scx(g, &v, 4, &r, 3, fld, ux, n) {
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.BLK.Add(1)
	return true
}

// doRB1 performs a single rotation fixing a red-red violation at the
// left-left grandchild of u.
func (t *Tree[K, V]) doRB1(g *epoch.Guard, lkU, lkUX, lkUXL llxscx.Linked[node[K, V]]) bool {
	u, ux, uxl := lkU.Node(), lkUX.Node(), lkUXL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxr := lkUX.Child(1)
	uxll, uxlr := lkUXL.Child(0), lkUXL.Child(1)
	nr := t.internalLike(ux, 0, uxlr, uxr)
	n := t.internalLike(uxl, replacementWeight(u, ux.w()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl}
	if !t.scx(g, &v, 3, &r, 2, fld, ux, n) {
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.RB1.Add(1)
	return true
}

// doRB1s is the mirror image of doRB1 (red-red violation at the right-right
// grandchild of u).
func (t *Tree[K, V]) doRB1s(g *epoch.Guard, lkU, lkUX, lkUXR llxscx.Linked[node[K, V]]) bool {
	u, ux, uxr := lkU.Node(), lkUX.Node(), lkUXR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxl := lkUX.Child(0)
	uxrl, uxrr := lkUXR.Child(0), lkUXR.Child(1)
	nl := t.internalLike(ux, 0, uxl, uxrl)
	n := t.internalLike(uxr, replacementWeight(u, ux.w()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxr}
	if !t.scx(g, &v, 3, &r, 2, fld, ux, n) {
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorRB1.Add(1)
	return true
}

// doRB2 performs a double rotation fixing a red-red violation at the
// left-right grandchild of u (Figure 17 of the paper).
func (t *Tree[K, V]) doRB2(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXLR llxscx.Linked[node[K, V]]) bool {
	u, ux, uxl, uxlr := lkU.Node(), lkUX.Node(), lkUXL.Node(), lkUXLR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxr := lkUX.Child(1)
	uxll := lkUXL.Child(0)
	uxlrl, uxlrr := lkUXLR.Child(0), lkUXLR.Child(1)
	nl := t.internalLike(uxl, 0, uxll, uxlrl)
	nr := t.internalLike(ux, 0, uxlrr, uxr)
	n := t.internalLike(uxlr, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXLR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxlr}
	if !t.scx(g, &v, 4, &r, 3, fld, ux, n) {
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.RB2.Add(1)
	return true
}

// doRB2s is the mirror image of doRB2 (violation at the right-left
// grandchild of u).
func (t *Tree[K, V]) doRB2s(g *epoch.Guard, lkU, lkUX, lkUXR, lkUXRL llxscx.Linked[node[K, V]]) bool {
	u, ux, uxr, uxrl := lkU.Node(), lkUX.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxl := lkUX.Child(0)
	uxrr := lkUXR.Child(1)
	uxrll, uxrlr := lkUXRL.Child(0), lkUXRL.Child(1)
	nl := t.internalLike(ux, 0, uxl, uxrll)
	nr := t.internalLike(uxr, 0, uxrlr, uxrr)
	n := t.internalLike(uxrl, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxr, uxrl}
	if !t.scx(g, &v, 4, &r, 3, fld, ux, n) {
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorRB2.Add(1)
	return true
}

// --- Overweight transformations ------------------------------------------

// pushUp implements the construction shared by PUSH and W7: both children
// give up one unit of weight to their parent.
func (t *Tree[K, V]) pushUp(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]], counter *atomic.Int64) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr := lkUXL.Node(), lkUXR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	nl := t.copyNode(lkUXL, uxl.w()-1)
	nr := t.copyNode(lkUXR, uxr.w()-1)
	n := t.internalLike(ux, replacementWeight(u, ux.w()+1), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr}
	if !t.scx(g, &v, 4, &r, 3, fld, ux, n) {
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	counter.Add(1)
	return true
}

// doPUSH handles an overweight left child whose sibling has weight one and
// no red children.
func (t *Tree[K, V]) doPUSH(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]]) bool {
	return t.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &t.stats.PUSH)
}

// doPUSHs is the mirror image of doPUSH.
func (t *Tree[K, V]) doPUSHs(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]]) bool {
	return t.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &t.stats.MirrorPUSH)
}

// doW7 handles the case where both children of ux are overweight.
func (t *Tree[K, V]) doW7(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]]) bool {
	return t.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &t.stats.W7)
}

// doW7s is the mirror image of doW7.
func (t *Tree[K, V]) doW7s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR llxscx.Linked[node[K, V]]) bool {
	return t.pushUp(g, lkU, lkUX, lkUXL, lkUXR, &t.stats.MirrorW7)
}

// doW1 handles an overweight uxl whose sibling uxr is red and whose nephew
// uxrl is overweight as well.
func (t *Tree[K, V]) doW1(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	nll := t.copyNode(lkUXL, uxl.w()-1)
	nlr := t.copyNode(lkUXRL, uxrl.w()-1)
	nl := t.internalLike(ux, 1, nll, nlr)
	n := t.internalLike(uxr, replacementWeight(u, ux.w()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrl}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nll)
		t.releaseFresh(nlr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.W1.Add(1)
	return true
}

// doW1s is the mirror image of doW1.
func (t *Tree[K, V]) doW1s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	nrr := t.copyNode(lkUXR, uxr.w()-1)
	nrl := t.copyNode(lkUXLR, uxlr.w()-1)
	nr := t.internalLike(ux, 1, nrl, nrr)
	n := t.internalLike(uxl, replacementWeight(u, ux.w()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxlr}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nrr)
		t.releaseFresh(nrl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW1.Add(1)
	return true
}

// doW2 handles an overweight uxl with a red sibling uxr whose left child has
// weight one and two non-red children.
func (t *Tree[K, V]) doW2(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	nll := t.copyNode(lkUXL, uxl.w()-1)
	nlr := t.copyNode(lkUXRL, 0)
	nl := t.internalLike(ux, 1, nll, nlr)
	n := t.internalLike(uxr, replacementWeight(u, ux.w()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrl}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nll)
		t.releaseFresh(nlr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.W2.Add(1)
	return true
}

// doW2s is the mirror image of doW2.
func (t *Tree[K, V]) doW2s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	nrr := t.copyNode(lkUXR, uxr.w()-1)
	nrl := t.copyNode(lkUXLR, 0)
	nr := t.internalLike(ux, 1, nrl, nrr)
	n := t.internalLike(uxl, replacementWeight(u, ux.w()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxlr}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nrr)
		t.releaseFresh(nrl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW2.Add(1)
	return true
}

// doW3 handles an overweight uxl with red sibling uxr, where uxrl has weight
// one and a red left child uxrll.
func (t *Tree[K, V]) doW3(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl, uxrll := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node(), lkUXRLL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrlr := lkUXRL.Child(1)
	uxrlll, uxrllr := lkUXRLL.Child(0), lkUXRLL.Child(1)
	nlll := t.copyNode(lkUXL, uxl.w()-1)
	nll := t.internalLike(ux, 1, nlll, uxrlll)
	nlr := t.internalLike(uxrl, 1, uxrllr, uxrlr)
	nl := t.internalLike(uxrll, 0, nll, nlr)
	n := t.internalLike(uxr, replacementWeight(u, ux.w()), nl, uxrr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrl, uxrll}
	if !t.scx(g, &v, 6, &r, 5, fld, ux, n) {
		t.releaseFresh(nlll)
		t.releaseFresh(nll)
		t.releaseFresh(nlr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.W3.Add(1)
	return true
}

// doW3s is the mirror image of doW3.
func (t *Tree[K, V]) doW3s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr, uxlrr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node(), lkUXLRR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrl := lkUXLR.Child(0)
	uxlrrl, uxlrrr := lkUXLRR.Child(0), lkUXLRR.Child(1)
	nrrr := t.copyNode(lkUXR, uxr.w()-1)
	nrr := t.internalLike(ux, 1, uxlrrr, nrrr)
	nrl := t.internalLike(uxlr, 1, uxlrl, uxlrrl)
	nr := t.internalLike(uxlrr, 0, nrl, nrr)
	n := t.internalLike(uxl, replacementWeight(u, ux.w()), uxll, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxlr, uxlrr}
	if !t.scx(g, &v, 6, &r, 5, fld, ux, n) {
		t.releaseFresh(nrrr)
		t.releaseFresh(nrr)
		t.releaseFresh(nrl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW3.Add(1)
	return true
}

// doW4 handles an overweight uxl with red sibling uxr, where uxrl has weight
// one and a red right child uxrlr.
func (t *Tree[K, V]) doW4(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl, uxrlr := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node(), lkUXRLR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrll := lkUXRL.Child(0)
	nll := t.copyNode(lkUXL, uxl.w()-1)
	nl := t.internalLike(ux, 1, nll, uxrll)
	nrl := t.copyNode(lkUXRLR, 1)
	nr := t.internalLike(uxr, 0, nrl, uxrr)
	n := t.internalLike(uxrl, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL, lkUXRLR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrl, uxrlr}
	if !t.scx(g, &v, 6, &r, 5, fld, ux, n) {
		t.releaseFresh(nll)
		t.releaseFresh(nl)
		t.releaseFresh(nrl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.W4.Add(1)
	return true
}

// doW4s is the mirror image of doW4.
func (t *Tree[K, V]) doW4s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr, uxlrl := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node(), lkUXLRL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrr := lkUXLR.Child(1)
	nrr := t.copyNode(lkUXR, uxr.w()-1)
	nr := t.internalLike(ux, 1, uxlrr, nrr)
	nlr := t.copyNode(lkUXLRL, 1)
	nl := t.internalLike(uxl, 0, uxll, nlr)
	n := t.internalLike(uxlr, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR, lkUXLRL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxlr, uxlrl}
	if !t.scx(g, &v, 6, &r, 5, fld, ux, n) {
		t.releaseFresh(nrr)
		t.releaseFresh(nr)
		t.releaseFresh(nlr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW4.Add(1)
	return true
}

// doW5 handles an overweight uxl whose sibling uxr has weight one and a red
// right child uxrr.
func (t *Tree[K, V]) doW5(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrr := lkUXL.Node(), lkUXR.Node(), lkUXRR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrl := lkUXR.Child(0)
	nll := t.copyNode(lkUXL, uxl.w()-1)
	nl := t.internalLike(ux, 1, nll, uxrl)
	nr := t.copyNode(lkUXRR, 1)
	n := t.internalLike(uxr, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrr}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nll)
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.W5.Add(1)
	return true
}

// doW5s is the mirror image of doW5.
func (t *Tree[K, V]) doW5s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxll := lkUXL.Node(), lkUXR.Node(), lkUXLL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxlr := lkUXL.Child(1)
	nrr := t.copyNode(lkUXR, uxr.w()-1)
	nr := t.internalLike(ux, 1, uxlr, nrr)
	nl := t.copyNode(lkUXLL, 1)
	n := t.internalLike(uxl, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxll}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nrr)
		t.releaseFresh(nr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW5.Add(1)
	return true
}

// doW6 handles an overweight uxl whose sibling uxr has weight one and a red
// left child uxrl.
func (t *Tree[K, V]) doW6(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXRL llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxrl := lkUXL.Node(), lkUXR.Node(), lkUXRL.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxrr := lkUXR.Child(1)
	uxrll, uxrlr := lkUXRL.Child(0), lkUXRL.Child(1)
	nll := t.copyNode(lkUXL, uxl.w()-1)
	nl := t.internalLike(ux, 1, nll, uxrll)
	nr := t.internalLike(uxr, 1, uxrlr, uxrr)
	n := t.internalLike(uxrl, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXRL}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxrl}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nll)
		t.releaseFresh(nl)
		t.releaseFresh(nr)
		t.releaseFresh(n)
		return false
	}
	t.stats.W6.Add(1)
	return true
}

// doW6s is the mirror image of doW6.
func (t *Tree[K, V]) doW6s(g *epoch.Guard, lkU, lkUX, lkUXL, lkUXR, lkUXLR llxscx.Linked[node[K, V]]) bool {
	u, ux := lkU.Node(), lkUX.Node()
	uxl, uxr, uxlr := lkUXL.Node(), lkUXR.Node(), lkUXLR.Node()
	fld := fieldFor(lkU, ux)
	if fld == nil {
		return false
	}
	uxll := lkUXL.Child(0)
	uxlrl, uxlrr := lkUXLR.Child(0), lkUXLR.Child(1)
	nrr := t.copyNode(lkUXR, uxr.w()-1)
	nr := t.internalLike(ux, 1, uxlrr, nrr)
	nl := t.internalLike(uxl, 1, uxll, uxlrl)
	n := t.internalLike(uxlr, replacementWeight(u, ux.w()), nl, nr)
	v := [llxscx.MaxV]llxscx.Linked[node[K, V]]{lkU, lkUX, lkUXL, lkUXR, lkUXLR}
	r := [llxscx.MaxV]*node[K, V]{ux, uxl, uxr, uxlr}
	if !t.scx(g, &v, 5, &r, 4, fld, ux, n) {
		t.releaseFresh(nrr)
		t.releaseFresh(nr)
		t.releaseFresh(nl)
		t.releaseFresh(n)
		return false
	}
	t.stats.MirrorW6.Add(1)
	return true
}
