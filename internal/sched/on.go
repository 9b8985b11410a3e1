//go:build sched

package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Enabled reports whether the deterministic scheduler and fault knobs are
// compiled in.
const Enabled = true

// active counts controllers currently inside Run. It is the fast path of
// Point: when no controller is running, a point is one atomic load.
var active atomic.Int32

// dropFreeze, skipValidate, skipMarkedRead, prematureFree,
// reuseRedecoratedLeaf and keepSiblingDeco are the seeded protocol mutations
// used by the checker self-tests. They are process-global: tests that arm
// them must not run in parallel with other tests (Explore already serializes
// itself).
var (
	dropFreeze           atomic.Bool
	skipValidate         atomic.Bool
	skipMarkedRead       atomic.Bool
	prematureFree        atomic.Bool
	reuseRedecoratedLeaf atomic.Bool
	keepSiblingDeco      atomic.Bool
)

// SetDropFreeze arms or disarms the dropped-freeze mutation: while armed,
// help() skips the freezing CAS on the first record of every SCX's V
// sequence. The caller must disarm it (defer SetDropFreeze(false)) before
// any other test runs.
func SetDropFreeze(on bool) { dropFreeze.Store(on) }

// DropFreeze reports whether the dropped-freeze mutation is armed.
func DropFreeze() bool { return dropFreeze.Load() }

// SetSkipValidate arms or disarms the skipped-validation mutation: while
// armed, a helper uses the fields it copied out of a reusable SCX descriptor
// without re-checking that the descriptor still belongs to the SCX it set
// out to help. The caller must disarm it before any other test runs.
func SetSkipValidate(on bool) { skipValidate.Store(on) }

// SkipValidate reports whether the skipped-validation mutation is armed.
func SkipValidate() bool { return skipValidate.Load() }

// SetSkipMarkedRead arms or disarms the skipped-marked-read mutation: while
// armed, LLX takes a record's finalized flag to be clear without reading it,
// so it hands out snapshots of records a committed SCX has removed.
func SetSkipMarkedRead(on bool) { skipMarkedRead.Store(on) }

// SkipMarkedRead reports whether the skipped-marked-read mutation is armed.
func SkipMarkedRead() bool { return skipMarkedRead.Load() }

// SetPrematureFree arms or disarms the premature-free mutation: while
// armed, epoch reclamation frees objects after one epoch advance instead of
// two (the E+1 bug the grace-period argument in DESIGN.md rules out).
func SetPrematureFree(on bool) { prematureFree.Store(on) }

// PrematureFree reports whether the premature-free mutation is armed.
func PrematureFree() bool { return prematureFree.Load() }

// SetReuseRedecoratedLeaf arms or disarms the reused-leaf mutation: while
// armed, the tree engine's insertion keeps the old leaf as a child of the new
// internal node even when the policy assigned it a different decoration (an
// overweight chromatic leaf, which must be replaced by a weight-one copy).
func SetReuseRedecoratedLeaf(on bool) { reuseRedecoratedLeaf.Store(on) }

// ReuseRedecoratedLeaf reports whether the reused-leaf mutation is armed.
func ReuseRedecoratedLeaf() bool { return reuseRedecoratedLeaf.Load() }

// SetKeepSiblingDeco arms or disarms the kept-decoration mutation: while
// armed, the sibling a deletion promotes keeps its own decoration instead of
// the one the policy computes (for a chromatic tree, its weight plus its
// removed parent's).
func SetKeepSiblingDeco(on bool) { keepSiblingDeco.Store(on) }

// KeepSiblingDeco reports whether the kept-decoration mutation is armed.
func KeepSiblingDeco() bool { return keepSiblingDeco.Load() }

// SetChaosHooks is a no-op in the sched build: runtime chaos injection
// (internal/chaos) targets the default build, where the deterministic
// controller is compiled out. The two exploration modes are deliberately
// exclusive — a controller-parked worker must never also be chaos-delayed.
func SetChaosHooks(func(PointID), func() bool) {}

// ArmChaos is a no-op in the sched build (see SetChaosHooks).
func ArmChaos(bool) {}

// ChaosArmed reports whether runtime chaos injection is armed: never, in
// the sched build.
func ChaosArmed() bool { return false }

// ChaosDropHelp reports whether the caller should skip an optional helping
// step: never, in the sched build.
func ChaosDropHelp() bool { return false }

// registry maps goroutine ids of controller-managed workers to their
// worker records. Goroutines not in the map (the test harness itself,
// runtime goroutines, workers of a finished controller) pass through
// Point untouched.
var registry sync.Map // goid int64 -> *worker

// Point is a potential preemption point. If the calling goroutine is a
// worker of a running Controller and the controller's point filter admits
// id, the goroutine parks here until the controller schedules it again.
// Otherwise Point returns immediately.
func Point(id PointID) {
	if active.Load() == 0 {
		return
	}
	v, ok := registry.Load(GoID())
	if !ok {
		return
	}
	w := v.(*worker)
	if w.c.filter != nil && !w.c.filter(id) {
		return
	}
	w.park(id)
}

// WaitZero waits until the counter drains to zero. For a goroutine owned by
// a running controller this is NOT a free spin — one worker runs at a time,
// so spinning against a counter held by a parked sibling would hang the
// whole enumeration. Instead the worker parks as wait-blocked: the
// controller excludes it from the runnable set until the counter is zero,
// which forces the schedule to run the counter's holder first. The wait is
// not a scheduling decision of its own (the controller has no choice to
// make about a blocked worker), so it does not blow up the schedule space.
// Unmanaged goroutines (and workers of an abandoned run, which execute
// concurrently) fall back to the production yield loop.
func WaitZero(id PointID, v *atomic.Int64) {
	if v.Load() == 0 {
		return
	}
	if active.Load() != 0 {
		if rec, ok := registry.Load(GoID()); ok {
			w := rec.(*worker)
			if !w.c.abandoned.Load() {
				w.ready = func() bool { return v.Load() == 0 }
				w.park(id)
				w.ready = nil
				if v.Load() != 0 {
					// Rescheduled with the counter still held: only possible
					// when the run was abandoned mid-wait.
					for v.Load() != 0 {
						runtime.Gosched()
					}
				}
				return
			}
		}
	}
	for v.Load() != 0 {
		runtime.Gosched()
	}
}
