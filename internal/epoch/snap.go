package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file extends the epoch layer with long-lived snapshot pins. A regular
// Guard must stay pinned for the duration of one dictionary operation: a slot
// that stays claimed blocks the global epoch, and with it every retire list
// in the process. A snapshot handle lives as long as its holder wants — often
// across many operations — so it needs a pin with different mechanics:
//
//   - the epoch keeps advancing while snapshot pins are held, so ordinary
//     reclamation of objects the snapshot cannot reach proceeds at full rate;
//   - an object whose grace period completes while a snapshot pinned at an
//     epoch at or below its retire epoch is live is PARKED instead of freed
//     (any node a snapshot can still reach was, by the capture argument in
//     DESIGN.md, retired after the snapshot registered, hence at an epoch at
//     or above the pin);
//   - releasing the last covering pin un-parks the deferred retirees by
//     re-retiring them under a fresh guard, so they take one more grace
//     period and then recycle normally.
//
// The registry is a fixed array of padded slots claimed by CAS, exactly like
// the operation slots, so SnapPin allocates nothing.

const numSnapSlots = 64

// SnapGuard is one long-lived snapshot pin. It is a slot in a fixed registry;
// holders obtain one from SnapPin and must call Release exactly once.
type SnapGuard struct {
	// epoch is 0 when the slot is free, else the global epoch recorded when
	// the snapshot registered. Recording a stale (smaller) epoch is safe: it
	// only parks more.
	epoch atomic.Uint64
	_     [56]byte
}

var (
	snapSlots [numSnapSlots]SnapGuard

	// snapCount is the number of live snapshot pins; the retire path loads it
	// once per drain to skip the held-bucket scan entirely when no snapshots
	// exist.
	snapCount atomic.Int64

	// parked holds retirees whose grace period completed under a live
	// snapshot pin. parkedCount mirrors len-in-entries for Pending.
	parkedMu    sync.Mutex
	parked      []parkedEntry
	parkedCount atomic.Int64
)

type parkedEntry struct {
	obj   any
	free  Func
	epoch uint64
}

// SnapPin registers a long-lived snapshot pin at the current global epoch and
// returns its guard. Objects retired from this moment on will not be freed
// until the pin (and every other pin at or below their retire epoch) is
// released; the global epoch itself keeps advancing.
func SnapPin() *SnapGuard {
	e := globalEpoch.Load()
	for tries := 0; ; tries++ {
		s := &snapSlots[tries%numSnapSlots]
		if s.epoch.Load() == 0 && s.epoch.CompareAndSwap(0, e) {
			snapCount.Add(1)
			return s
		}
		if tries%numSnapSlots == numSnapSlots-1 {
			runtime.Gosched()
			e = globalEpoch.Load()
		}
	}
}

// Release frees the pin. Deferred retirees that no remaining pin covers are
// re-retired under a fresh guard, taking one more grace period before they
// recycle. Safe to call from any goroutine, but exactly once per SnapPin.
func (s *SnapGuard) Release() {
	s.epoch.Store(0)
	snapCount.Add(-1)
	unparkEligible()
}

// minSnapEpoch returns the smallest epoch among live snapshot pins, and
// whether any pin is live.
func minSnapEpoch() (uint64, bool) {
	min, any := uint64(0), false
	for i := range snapSlots {
		if e := snapSlots[i].epoch.Load(); e != 0 && (!any || e < min) {
			min, any = e, true
		}
	}
	return min, any
}

// snapHeld reports whether a bucket retired at epoch be must be parked
// instead of freed: some live snapshot pin registered at or below be, so the
// snapshot may still reach objects in the bucket. Callers should gate on
// snapCount first; this re-scans the registry.
func snapHeld(be uint64) bool {
	min, any := minSnapEpoch()
	return any && be >= min
}

// park moves a drained-but-held batch onto the global parked list.
func park(be uint64, items []entry) {
	parkedMu.Lock()
	for _, it := range items {
		parked = append(parked, parkedEntry{it.obj, it.free, be})
	}
	parkedMu.Unlock()
	parkedCount.Add(int64(len(items)))
}

// unparkEligible re-retires every parked object that no live snapshot pin
// covers anymore. Each takes a fresh grace period under the re-retiring
// guard, which also re-checks any pins registered in the meantime.
func unparkEligible() {
	if parkedCount.Load() == 0 {
		return
	}
	min, any := minSnapEpoch()
	parkedMu.Lock()
	var out []parkedEntry
	kept := parked[:0]
	for _, pe := range parked {
		if any && pe.epoch >= min {
			kept = append(kept, pe)
		} else {
			out = append(out, pe)
		}
	}
	clear(parked[len(kept):])
	parked = kept
	parkedMu.Unlock()
	if len(out) == 0 {
		return
	}
	parkedCount.Add(int64(-len(out)))
	g := Pin()
	for _, pe := range out {
		Retire(g, pe.obj, pe.free)
	}
	Unpin(g)
}

// SnapPinned returns the number of live snapshot pins. Test and diagnostic
// use.
func SnapPinned() int64 { return snapCount.Load() }

// ParkedCount returns the number of retirees deferred behind snapshot pins.
// Test and diagnostic use.
func ParkedCount() int64 { return parkedCount.Load() }

// discardParked drops every parked retiree to the garbage collector; part of
// DiscardAll's full-quiescence reset.
func discardParked() {
	parkedMu.Lock()
	clear(parked)
	parked = parked[:0]
	parkedMu.Unlock()
	parkedCount.Store(0)
}
