package epoch

import (
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond (yielding) until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats: %+v)", what, Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogEvictsStalledPinAndRecovers is the end-to-end degradation
// story: a goroutine parks while pinned, every retire in the process backs
// up behind its stale epoch, the watchdog evicts the slot and drains the
// backlog (to the GC, not the free callbacks), and when the holder finally resumes
// the eviction is recovered and normal recycling returns.
func TestWatchdogEvictsStalledPinAndRecovers(t *testing.T) {
	Drain()
	baseDrops := degradedDrops.Load()

	// The stalled holder: pins and parks until released.
	stalled := Pin()
	release := make(chan struct{})
	resumed := make(chan struct{})
	go func() {
		<-release
		Unpin(stalled)
		close(resumed)
	}()

	// Independent traffic retires objects; the stalled pin blocks their
	// grace periods, so none of them free.
	var freed atomic.Int64
	g := Pin()
	for i := 0; i < 200; i++ {
		Retire(g, new(int), countingFree(&freed))
	}
	Unpin(g)
	if Drain() == 0 {
		t.Fatal("pending drained to zero despite a live stale pin")
	}
	if freed.Load() != 0 {
		t.Fatal("objects freed under a live stale pin before any eviction")
	}

	w := StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	defer w.Stop()

	// The watchdog must evict the stalled slot and drive Pending to zero by
	// dropping the backlog to the GC; the free callbacks must NOT run.
	waitFor(t, 5*time.Second, "eviction + drained backlog", func() bool {
		s := Stats()
		return s.Evictions >= 1 && s.Pending == 0
	})
	if freed.Load() != 0 {
		t.Fatalf("%d free callbacks ran in degraded mode (must drop to GC)", freed.Load())
	}
	if degradedDrops.Load() == baseDrops {
		t.Fatal("no degraded drops recorded while draining an evicted backlog")
	}
	if s := Stats(); s.StalledSlots != 1 {
		t.Fatalf("StalledSlots = %d, want 1 (stats: %+v)", s.StalledSlots, s)
	}

	// Holder resumes: the watchdog's next scan must count a recovery, leave
	// degraded mode, and let new retirees recycle through their callbacks
	// again.
	close(release)
	<-resumed
	waitFor(t, 5*time.Second, "recovery", func() bool {
		s := Stats()
		return s.Recovered >= 1 && s.StalledSlots == 0
	})
	waitFor(t, 5*time.Second, "degraded mode exit", func() bool {
		return degradedPins.Load() == 0
	})

	g = Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	waitFor(t, 5*time.Second, "post-recovery recycling", func() bool {
		Drain()
		return freed.Load() == 1
	})
}

// TestWatchdogStopRestoresBlockedSlot: stopping the watchdog while a slot
// is still evicted must restore the slot's original epoch, so the advance
// is conservatively blocked again rather than skipping a pin nobody is
// accounting for.
func TestWatchdogStopRestoresBlockedSlot(t *testing.T) {
	Drain()

	stalled := Pin()
	orig := stalled.state.Load()
	w := StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	waitFor(t, 5*time.Second, "eviction", func() bool {
		return stalled.state.Load() == stalledState
	})
	w.Stop()
	if got := stalled.state.Load(); got != orig {
		t.Fatalf("state after Stop = %#x, want restored epoch %#x", got, orig)
	}
	if n := degradedPins.Load(); n != 0 {
		t.Fatalf("degradedPins = %d after Stop", n)
	}

	// Restored semantics: the stale pin blocks the advance again.
	e := globalEpoch.Load()
	tryAdvance()
	tryAdvance()
	if globalEpoch.Load() > e+1 {
		t.Fatal("epoch advanced twice past a restored stale pin")
	}
	Unpin(stalled)
	Drain()
}

// TestWatchdogFalseEvictionIsSafe: evicting a slot whose holder is alive
// (just slow) must not run free callbacks for objects retired during the
// eviction window — the degraded-mode drop is what makes the watchdog's
// observational stall test safe against false positives.
func TestWatchdogFalseEvictionIsSafe(t *testing.T) {
	Drain()

	holder := Pin() // "slow", not stuck: we release it mid-test
	w := StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	defer w.Stop()
	waitFor(t, 5*time.Second, "eviction", func() bool {
		return holder.state.Load() == stalledState
	})

	// With the eviction active, retires from other slots must drop, not
	// recycle: the evicted holder may (here: does) still hold references.
	var freed atomic.Int64
	g := Pin()
	for i := 0; i < 50; i++ {
		Retire(g, new(int), countingFree(&freed))
	}
	Unpin(g)
	waitFor(t, 5*time.Second, "degraded drain", func() bool {
		Drain()
		return Pending() == 0
	})
	if freed.Load() != 0 {
		t.Fatalf("%d callbacks recycled objects during a live (false) eviction", freed.Load())
	}

	Unpin(holder) // the "slow" holder finally finishes
	waitFor(t, 5*time.Second, "recovery", func() bool {
		return degradedPins.Load() == 0
	})
}

// TestStatsReportsShape: the Report's instantaneous fields track pins and
// pending retirees without claiming busy slots.
func TestStatsReportsShape(t *testing.T) {
	Drain()

	g := Pin()
	s := Stats()
	if s.PinnedSlots < 1 {
		t.Fatalf("PinnedSlots = %d with a live pin", s.PinnedSlots)
	}
	if s.Epoch == 0 {
		t.Fatal("Epoch = 0")
	}
	var freed atomic.Int64
	Retire(g, new(int), countingFree(&freed))
	s = Stats()
	if s.Pending < 1 {
		t.Fatalf("Pending = %d after a retire", s.Pending)
	}
	// The retiring slot is busy, so its retiree shows up as unscanned.
	if s.PendingUnscanned < 1 {
		t.Fatalf("PendingUnscanned = %d with a busy retiring slot", s.PendingUnscanned)
	}
	Unpin(g)

	// Quiescent now: the same retiree must be scannable by age.
	s = Stats()
	var byAge int64
	for _, n := range s.PendingByAge {
		byAge += n
	}
	if byAge < 1 {
		t.Fatalf("PendingByAge sums to %d with a quiescent pending retiree (stats: %+v)", byAge, s)
	}
	Drain()
}
