package epoch

import (
	"runtime"
	"sync"
	"time"
)

// stallAfter is how long a slot may hold one stale epoch, blocking every
// advance, before Retire evicts it: ten times the longest a pinned operation
// was measured descheduled on a 2-CPU host (10.1 ms), so one that is only
// waiting for a CPU is not evicted. Epoch's tests shorten it (stall.after).
const stallAfter = 100 * time.Millisecond

// stall records the slot that last blocked an advance on Retire's slow path,
// its state word and when that state was first seen blocking, and the slots
// evicted and not yet seen to unpin. Its lock is only ever tried: a lost race
// delays an eviction or a recovery and never makes one unsafe.
var stall = struct {
	sync.Mutex
	after   time.Duration
	slot    int
	state   uint64
	since   time.Time
	evicted []int
}{after: stallAfter}

// blocked is Retire's slow path: an advance failed while g, the retiring
// slot, held yieldPending retirees or more. It gives the blocker the CPU,
// which usually lets it unpin. If the advance still fails on a slot other
// than g, blocked times that slot, the only clock read in the package, and
// once it has held one stale epoch for stall.after evicts it: degraded mode
// first, then the sentinel advance skips, so no advance the eviction enables
// can recycle what the holder may still reach (DESIGN.md, "Chaos, stalls,
// and bounded degradation"). It then drains the idle slots' backlog too.
//
//go:noinline
func blocked(g *Guard) {
	runtime.Gosched()
	b := tryAdvance()
	if b < 0 || b == g.slot || !stall.TryLock() {
		return
	}
	evicted := false
	s, now := slots[b].state.Load(), time.Now()
	switch {
	case s == 0 || s == stalledState || s == globalEpoch.Load():
		stall.state = 0 // released, evicted, or caught up since it blocked
	case b != stall.slot || s != stall.state:
		stall.slot, stall.state, stall.since = b, s, now
	case now.Sub(stall.since) >= stall.after:
		stall.state = 0
		degradedPins.Add(1)
		if evicted = slots[b].state.CompareAndSwap(s, stalledState); evicted {
			evictions.Add(1)
			stall.evicted = append(stall.evicted, b)
		} else {
			degradedPins.Add(-1) // its holder moved on: not stalled after all
		}
	}
	stall.Unlock()
	if evicted {
		Drain()
	}
}

// recoverEvicted ends the degraded mode of each evicted slot whose holder has
// unpinned since, counting a recovery (only Unpin moves a slot off
// stalledState), and reports whether the layer has left degraded mode. A
// drain in degraded mode calls it, and so does Drain.
func recoverEvicted() bool {
	if !stall.TryLock() {
		return false
	}
	kept := stall.evicted[:0]
	for _, i := range stall.evicted {
		if slots[i].state.Load() == stalledState {
			kept = append(kept, i)
			continue
		}
		degradedPins.Add(-1)
		recoveries.Add(1)
	}
	stall.evicted = kept
	stall.Unlock()
	return degradedPins.Load() == 0
}
