package llxscx

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
)

// Pool carries the commit hook of one data structure into its SCXs; all SCXP
// calls on records of the same structure share one. (Descriptors are not
// pooled: they belong to the epoch slots.)
type Pool[N any] struct {
	// OnCommit, when non-nil, is invoked by every SCXP after all records are
	// frozen and finalized, immediately BEFORE the update CAS, with the SCX's
	// mutable field, expected old value and new value. EVERY process that
	// reaches the update CAS calls it (not only the one whose CAS lands), so
	// the callback must be idempotent; in exchange it is guaranteed to have
	// run to completion at least once before new can be read out of any
	// mutable field. It runs inside a publish window (epoch.Window) on the
	// epoch slot of the SCX's initiator, which stays open until the caller's
	// update CAS attempt is over, so whatever the hook reads is ordered
	// against epoch.DrainWindows. The trees use it to stamp the freshly
	// installed subtree root with their version clock and its previous-version
	// link (DESIGN.md, "Versioned snapshots"). Set once at construction,
	// before the structure's first SCXP.
	OnCommit func(fld *atomic.Pointer[N], old, new *N)

	// h is the view of the hook that a descriptor points at.
	h hooks
}

// hooks is a Pool's callback with the node type erased, so that help() can
// run it for whichever structure a descriptor currently serves.
type hooks struct {
	commit func(fld *unsafe.Pointer, old, new unsafe.Pointer)
}

// NewPool returns the hook carrier for one data structure.
func NewPool[N any]() *Pool[N] {
	pl := &Pool[N]{}
	pl.h.commit = func(fld *unsafe.Pointer, old, new unsafe.Pointer) {
		pl.OnCommit((*atomic.Pointer[N])(unsafe.Pointer(fld)), (*N)(old), (*N)(new))
	}
	return pl
}

// SCXP is SCXFixed for a caller that runs pinned: g must be the caller's
// pinned epoch guard, and the SCX uses the descriptor of g's slot instead
// of pinning one of its own. pl supplies the structure's commit hook. The
// slot rewrites an argument block only once every operation pinned when the
// block was replaced has unpinned, g included: a caller that runs many SCXs
// under one pin adds a block per SCX to its slot's Recycler until it
// unpins, as its retires pile up on its retire list.
func SCXP[P DataRecord[N], N any](g *epoch.Guard, pl *Pool[N], v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	var h *hooks
	if pl.OnCommit != nil {
		h = &pl.h
	}
	return scx(g, h, v, nv, finalize, nf, fld, old, new)
}
