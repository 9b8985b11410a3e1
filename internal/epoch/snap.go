package epoch

import (
	"runtime"
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
//   - a retiree whose grace period is over stays in place on its slot's retire
//     list while a snapshot pinned at an epoch at or below its stamp is live
//     (any node a snapshot can still reach was, by the capture argument in
//     DESIGN.md, retired after the snapshot registered, hence at an epoch at
//     or above the pin), and so does everything behind it, whose stamps are
//     no smaller;
//   - releasing a pin only clears its registry slot: the next drain of each
//     retire list frees what the pin held, with no further grace period. The
//     grace period is already over, and the released view was the only reader
//     left.
//
// The registry is a fixed array of padded slots claimed by CAS, exactly like
// the operation slots, so SnapPin allocates nothing.

const numSnapSlots = 64

// SnapGuard is one long-lived snapshot pin. It is a slot in a fixed registry;
// holders obtain one from SnapPin and must call Release exactly once.
type SnapGuard struct {
	// epoch is 0 when the slot is free, else the global epoch recorded when
	// the snapshot registered. Recording a stale (smaller) epoch is safe: it
	// only holds more.
	epoch atomic.Uint64
	_     [56]byte
}

var (
	snapSlots [numSnapSlots]SnapGuard

	// snapCount is the number of live snapshot pins; a drain loads it once to
	// skip the registry scan entirely when no snapshots exist.
	snapCount atomic.Int64
)

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

// Release frees the pin. The retirees only it held are freed by the next
// drain of the retire lists they are on. Safe to call from any goroutine,
// but exactly once per SnapPin.
func (s *SnapGuard) Release() {
	s.epoch.Store(0)
	snapCount.Add(-1)
}

// snapFloor returns the smallest epoch a live snapshot pin registered at, or
// the largest epoch when none is live: a snapshot may still reach a retiree
// stamped at or above it.
func snapFloor() uint64 {
	floor := ^uint64(0)
	if snapCount.Load() != 0 {
		for i := range snapSlots {
			if e := snapSlots[i].epoch.Load(); e != 0 {
				floor = min(floor, e)
			}
		}
	}
	return floor
}

// SnapPinned returns the number of live snapshot pins. Test and diagnostic
// use.
func SnapPinned() int64 { return snapCount.Load() }
