package epoch

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/sched"
)

// A Window counts the publish windows open on one slot. A window is a short,
// straight-line stretch of an update between two of its own steps that a
// snapshot capture must not land inside: the in-place overwrite's "no
// snapshot is live" check and its value publish (opened on the overwriter's
// own guard), and an SCX's version stamp and its update CAS (opened, by
// whoever runs that SCX, on the slot its tag names). The counter lives on
// the line of the slot's state word, which an operation's Pin has just made
// exclusive to its CPU, so opening and closing a window on one's own slot
// moves no cache line; a helper opens one on the initiator's slot only while
// it is already contending on that slot's descriptor. A capture waits the
// open windows out with DrainWindows.
type Window struct{ n atomic.Int64 }

// Open opens a window. What the window orders against a capture (a clock
// read, a liveness check) must come after it.
func (w *Window) Open() { w.n.Add(1) }

// Close closes a window opened with Open.
func (w *Window) Close() { w.n.Add(-1) }

// Window returns the window counter of g's slot; g must be pinned.
func (g *Guard) Window() *Window { return &g.window }

// SlotWindow returns the window counter of slot, for a process running an
// SCX that slot's holder started.
func SlotWindow(slot int) *Window { return &slots[slot].window }

// DrainWindows returns once every window that was open when it was called
// has closed. Slots are process-wide, so it may wait out a window of an
// operation on a structure other than the caller's; a window is a handful of
// straight-line atomics. It scans only the slots below slotMark, which
// covers every slot a Pin has claimed before that Pin returns, hence before
// a window can open there. Pins probe from a range sized by GOMAXPROCS
// (slotHint), so the scan costs about the operations that run at once,
// however many goroutines have run one and whatever the dictionary's size.
//
// The scan notes the open windows in one pass and then waits for them
// together: a window that opens behind the scan is one the caller does not
// need, and one wait over the noted slots, unlike a wait slot by slot, is the
// same scheduling constraint whichever slots the operations happen to hold
// (sched's enumerations depend on that to be reproducible).
func DrainWindows() {
	used := slots[:slotMark.Load()]
	var open [NumSlots / 64]uint64
	for i := range used {
		if used[i].window.n.Load() != 0 {
			open[i/64] |= 1 << (i % 64)
		}
	}
	// Stored only when it changes: captures on different CPUs then share
	// the line as readers instead of taking turns writing it.
	if drainSlots.Load() != int64(len(used)) {
		drainSlots.Store(int64(len(used)))
	}
	if open == [len(open)]uint64{} {
		return
	}
	windowWaits.Add(1)
	noted := open // the closure's copy: only a capture that waits allocates it
	sched.WaitUntil(sched.PointSnapDrain, func() bool {
		for i, m := range noted {
			for ; m != 0; m &= m - 1 {
				if slots[i*64+bits.TrailingZeros64(m)].window.n.Load() != 0 {
					return false
				}
			}
		}
		return true
	})
}
