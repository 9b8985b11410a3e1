package epoch

// Report is a point-in-time health summary of the reclamation layer,
// returned by Stats: why memory is pending, not just how much.
type Report struct {
	// Epoch is the current global epoch.
	Epoch uint64
	// PinnedSlots is the number of operation slots currently claimed
	// (excluding evicted ones).
	PinnedSlots int
	// StalledSlots is the number of slots currently evicted by the
	// watchdog; nonzero means the layer is running degraded.
	StalledSlots int
	// SnapPins is the number of live long-lived snapshot pins.
	SnapPins int64
	// Pending is the total retirees whose grace period has not completed,
	// including those a snapshot pin holds (same quantity as Pending()).
	Pending int64
	// PendingByAge counts the pending retirees of quiescent slots by how
	// many epochs ago they were retired (index min(now-retireEpoch, 2)).
	// Slots claimed by live operations cannot be scanned without racing
	// their owner; their share is reported in PendingUnscanned instead.
	PendingByAge [3]int64
	// PendingUnscanned is the pending count held by slots that were busy
	// during the scan.
	PendingUnscanned int64
	// AdvanceFails counts epoch-advance attempts (cumulative) that were
	// blocked by a slot still observing an older epoch.
	AdvanceFails int64
	// Refusals counts free callbacks (cumulative) that refused and were
	// re-queued for another grace period. No structure in the repository
	// refuses today (nodes and value cells are freed unconditionally), so a
	// nonzero count marks a regression.
	Refusals int64
	// DegradedDrops counts retirees (cumulative) dropped to the garbage
	// collector instead of recycled because a watchdog eviction was active.
	DegradedDrops int64
	// Evictions and Recovered count watchdog slot evictions and the subset
	// whose holder later resumed and released the slot (cumulative).
	Evictions int64
	Recovered int64
	// WindowWaits counts snapshot captures (cumulative, DrainWindows calls)
	// that found a publish window open and waited for it.
	WindowWaits int64
	// DrainSlots is the number of slots the most recent DrainWindows
	// scanned, which is what a capture costs: the slots below the slot
	// mark, about the operations that have run at once.
	DrainSlots int64
	// OpenWindows is the number of publish windows open right now. With no
	// update in flight it is zero; a window left open (an operation that
	// panicked or parked inside one) wedges every later capture.
	OpenWindows int64
}

// Stats returns a health report for the reclamation layer. The ages are
// gathered by briefly claiming each quiescent slot with the same
// CAS Drain uses, so the scan never races a slot owner; busy slots
// contribute only their atomic pending total.
func Stats() Report {
	var r Report
	now := globalEpoch.Load()
	r.Epoch = now
	for i := range snapSlots[:snapMark.Load()] {
		if snapSlots[i].epoch.Load() != 0 {
			r.SnapPins++
		}
	}
	r.AdvanceFails = advanceFails.Load()
	r.Refusals = freeRefusals.Load()
	r.DegradedDrops = degradedDrops.Load()
	r.Evictions = evictions.Load()
	r.Recovered = recoveries.Load()
	r.WindowWaits = windowWaits.Load()
	r.DrainSlots = drainSlots.Load()
	for i := range slots {
		g := &slots[i]
		r.OpenWindows += g.window.n.Load()
		pending := g.pending.Load()
		r.Pending += pending
		switch s := g.state.Load(); {
		case s == stalledState:
			r.StalledSlots++
			r.PendingUnscanned += pending
		case s != 0:
			r.PinnedSlots++
			r.PendingUnscanned += pending
		case pending == 0:
			// Free and empty; nothing to scan.
		case g.state.CompareAndSwap(0, now):
			// Claimed like Drain does, so the retire list is ours to read.
			for i := range g.retired.n {
				r.PendingByAge[min(now-g.retired.stamp(i), 2)]++
			}
			g.state.Store(0)
		default:
			// Lost the claim to a racing Pin; count it like a busy slot.
			r.PendingUnscanned += pending
		}
	}
	return r
}
