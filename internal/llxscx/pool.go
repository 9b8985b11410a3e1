package llxscx

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
)

// Pool carries the commit hooks of one data structure; all SCXP calls on
// records of the same structure share one. (The name is historical: until
// descriptors became reusable per-slot records it also recycled them.)
type Pool[N any] struct {
	// OnCommit, when non-nil, is invoked by help() for every SCXP after all
	// records are frozen and finalized, immediately BEFORE the update CAS,
	// with the SCX's mutable field, expected old value and new value. EVERY
	// helper that reaches the update CAS calls it (not only the one whose
	// CAS lands), so the callback must be idempotent; in exchange it is
	// guaranteed to have run to completion at least once before new can be
	// read out of any mutable field. The trees use this to stamp the freshly
	// installed subtree root with a version tick and its previous-version
	// link, ordering the commit against snapshot capture (DESIGN.md,
	// "Versioned snapshots"). Set once at construction, before the
	// structure's first SCXP.
	OnCommit func(fld *atomic.Pointer[N], old, new *N)

	// OnInstalled, when non-nil alongside OnCommit, is invoked immediately
	// AFTER the update CAS by every helper that invoked OnCommit, pairing
	// one-to-one with those calls. The trees use the pair as a bracket
	// around the stamp→install window: OnCommit opens a counter before it
	// assigns the version tick, OnInstalled closes it once the new subtree
	// is (or is guaranteed to already be) reachable, and Snapshot drains the
	// counter after reading the version counter — which is what makes "tick
	// at or below a captured version" imply "installed before the capture's
	// first read" (DESIGN.md, "Versioned snapshots").
	OnInstalled func()

	// h is the view of the two hooks that a descriptor points at.
	h hooks
}

// hooks is a Pool's callbacks with the node type erased, so that help() can
// run them for whichever structure a descriptor currently serves.
type hooks struct {
	commit    func(fld *unsafe.Pointer, old, new unsafe.Pointer)
	installed func()
}

// NewPool returns the hook carrier for one data structure.
func NewPool[N any]() *Pool[N] {
	pl := &Pool[N]{}
	pl.h.commit = func(fld *unsafe.Pointer, old, new unsafe.Pointer) {
		pl.OnCommit((*atomic.Pointer[N])(unsafe.Pointer(fld)), (*N)(old), (*N)(new))
	}
	pl.h.installed = func() {
		if pl.OnInstalled != nil {
			pl.OnInstalled()
		}
	}
	return pl
}

// SCXP is SCXFixed for a caller that runs pinned: g must be the caller's
// pinned epoch guard, and the SCX uses the descriptor of g's slot instead
// of pinning one of its own. pl supplies the structure's commit hooks.
func SCXP[P DataRecord[N], N any](g *epoch.Guard, pl *Pool[N], v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	var h *hooks
	if pl.OnCommit != nil {
		h = &pl.h
	}
	return scx(g, h, v, nv, finalize, nf, fld, old, new)
}
