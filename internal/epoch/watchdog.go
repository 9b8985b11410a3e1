package epoch

import (
	"time"
)

// Watchdog detects operation slots that have been pinned pathologically
// long — a goroutine stuck, parked, leaked, or killed mid-operation — and
// degrades gracefully around them instead of letting one lost holder block
// reclamation for the whole process.
//
// Detection is observational: a slot whose state word holds the same
// non-zero epoch across StallAfter of wall time is declared stalled. That
// test can false-positive (the slot may have been released and re-claimed
// at the same epoch between scans, or the holder may simply be slow), so
// eviction is engineered to be safe even against a live holder: the
// watchdog first enters degraded mode (degradedPins), under which every
// eligible retiree anywhere is dropped to the garbage collector rather than
// recycled, and only then CASes the slot's state to the stalledState
// sentinel that tryAdvance skips. Advancing past a live pin therefore never
// frees memory the pin protects — the GC keeps anything the stalled
// goroutine's stack still references alive — it merely stops recycling,
// trading a leak bounded by the stall's duration for the unbounded growth
// of every retire list in the process. The full argument is in DESIGN.md
// ("Chaos, stalls, and bounded degradation").
//
// The watchdog also owns the eviction lifecycle: each scan it re-checks
// evicted slots, and when a holder has resumed and released (the state is
// no longer the sentinel) it exits degraded mode for that slot and counts a
// recovery. Unpin itself cannot do this — between its load and its store a
// concurrent eviction could slip in and the decrement would be lost — so
// recovery lags by at most one scan interval, which only extends degraded
// mode conservatively.
type Watchdog struct {
	interval   time.Duration
	stallAfter time.Duration
	stop       chan struct{}
	done       chan struct{}
}

// evictedSlot records one eviction so the holder's resumption can be
// detected and, on Stop, the original epoch restored.
type evictedSlot struct {
	idx  int
	orig uint64
}

// StartWatchdog launches a watchdog goroutine that scans the slot array
// every interval and evicts any slot continuously pinned at one epoch for
// at least stallAfter. While any eviction is active it also drives
// reclamation (Drain) so the backlog the stall accumulated actually
// shrinks. Stop the returned watchdog exactly once.
func StartWatchdog(interval, stallAfter time.Duration) *Watchdog {
	w := &Watchdog{
		interval:   interval,
		stallAfter: stallAfter,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.run()
	return w
}

// Stop halts the scan loop and blocks until it exits. Slots still evicted
// at that point are restored to their original epoch — re-establishing the
// conservative pre-eviction behavior (the slot blocks the advance again
// until its holder, if any, unpins) — so degraded mode never outlives the
// watchdog that entered it.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	var (
		lastVal [NumSlots]uint64
		since   [NumSlots]time.Time
		evicted []evictedSlot
	)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			for _, ev := range evicted {
				// Either the sentinel is still in place (restore the original
				// epoch: the holder has not resumed, and with the watchdog
				// gone nobody may skip this slot) or the holder resumed and
				// released; both ways this eviction — and its degraded-mode
				// share — is over.
				slots[ev.idx].state.CompareAndSwap(stalledState, ev.orig)
				degradedPins.Add(-1)
			}
			return
		case now := <-ticker.C:
			// Recovery pass: an evicted slot whose state is no longer the
			// sentinel was released by its resuming holder (Unpin stores 0
			// regardless of the sentinel).
			kept := evicted[:0]
			for _, ev := range evicted {
				if slots[ev.idx].state.Load() != stalledState {
					degradedPins.Add(-1)
					recoveries.Add(1)
					continue
				}
				kept = append(kept, ev)
			}
			evicted = kept

			// Detection pass.
			for i := range slots {
				s := slots[i].state.Load()
				if s == 0 || s == stalledState {
					lastVal[i] = s
					continue
				}
				if s != lastVal[i] {
					lastVal[i] = s
					since[i] = now
					continue
				}
				if now.Sub(since[i]) < w.stallAfter {
					continue
				}
				// Degrade first, then evict: any advance the sentinel enables
				// must already observe degraded mode (see the type comment).
				degradedPins.Add(1)
				if slots[i].state.CompareAndSwap(s, stalledState) {
					evictions.Add(1)
					evicted = append(evicted, evictedSlot{idx: i, orig: s})
					lastVal[i] = stalledState
				} else {
					// The holder moved between our load and the CAS — not
					// stalled after all.
					degradedPins.Add(-1)
					lastVal[i] = slots[i].state.Load()
					since[i] = now
				}
			}

			if len(evicted) != 0 {
				// An eviction unblocked the advance; drain so the stalled
				// backlog is actually dropped (to GC, in degraded mode)
				// instead of waiting for organic Retire traffic.
				Drain()
			} else {
				tryAdvance()
			}
		}
	}
}
