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

// retire runs one operation that retires advanceEvery objects.
func retire(free Func) {
	g := Pin()
	for range advanceEvery {
		Retire(g, new(int), free)
	}
	Unpin(g)
}

// retireUntil runs operations that retire objects until cond holds, and
// returns how many objects they retired.
func retireUntil(t *testing.T, what string, free Func, cond func() bool) int {
	t.Helper()
	n := 0
	waitFor(t, 5*time.Second, what, func() bool {
		retire(free)
		n += advanceEvery
		return cond()
	})
	return n
}

// TestRetireEvictsStalledPinAndRecovers is the end-to-end degradation
// story, with nothing started: a holder stays pinned, every retire in the
// process backs up behind its stale epoch, and the retirer behind it evicts
// the slot once it has blocked for the stall bound. The backlog then drains
// to the GC, not the free callbacks. When the holder unpins, the retirer's
// next drain counts the recovery and leaves degraded mode, and normal
// recycling returns.
func TestRetireEvictsStalledPinAndRecovers(t *testing.T) {
	defer setStallAfter(10 * time.Millisecond)()
	Drain()
	baseDrops, baseRecovered := degradedDrops.Load(), recoveries.Load()

	stalled := Pin()
	var freed atomic.Int64
	evicted := func() bool { return stalled.state.Load() == stalledState }
	if n := retireUntil(t, "an eviction by retire traffic", countingFree(&freed), evicted); n < yieldPending {
		t.Fatalf("evicted after %d retires, before any slot held %d", n, yieldPending)
	}
	if s := Stats(); s.StalledSlots != 1 {
		t.Fatalf("StalledSlots = %d, want 1 (stats: %+v)", s.StalledSlots, s)
	}
	if n := Drain(); n != 0 {
		t.Fatalf("Pending = %d after Drain with the stalled slot evicted", n)
	}
	if freed.Load() != 0 {
		t.Fatalf("%d free callbacks ran in degraded mode (must drop to GC)", freed.Load())
	}
	if degradedDrops.Load() == baseDrops {
		t.Fatal("no degraded drops recorded while draining an evicted backlog")
	}

	// The holder resumes and unpins; retire traffic alone notices.
	Unpin(stalled)
	retireUntil(t, "recovery by retire traffic", countingFree(&freed), func() bool {
		return recoveries.Load() != baseRecovered
	})
	if n := degradedPins.Load(); n != 0 {
		t.Fatalf("degradedPins = %d after the evicted holder unpinned", n)
	}
	if s := Stats(); s.StalledSlots != 0 {
		t.Fatalf("StalledSlots = %d after recovery", s.StalledSlots)
	}
	drops := degradedDrops.Load()
	Drain()
	if freed.Load() == 0 || degradedDrops.Load() != drops {
		t.Fatalf("after recovery %d callbacks ran and %d retirees were dropped, want recycling only",
			freed.Load(), degradedDrops.Load()-drops)
	}
}

// TestFalseEvictionIsSafe: evicting a slot whose holder is alive (just slow)
// must not run free callbacks for objects retired during the eviction — the
// degraded-mode drop is what makes the observational stall test safe
// against false positives. Drain, which evicts nothing, notices the
// holder's unpin.
func TestFalseEvictionIsSafe(t *testing.T) {
	defer setStallAfter(10 * time.Millisecond)()
	Drain()

	holder := Pin() // "slow", not stuck: it unpins below
	var freed atomic.Int64
	retireUntil(t, "an eviction by retire traffic", countingFree(&freed), func() bool {
		return holder.state.Load() == stalledState
	})
	// With the eviction active, more retires must drop, not recycle: the
	// evicted holder may (here: does) still hold references.
	for range 4 {
		retire(countingFree(&freed))
	}
	if n := Drain(); n != 0 {
		t.Fatalf("Pending = %d after Drain during an eviction", n)
	}
	if freed.Load() != 0 {
		t.Fatalf("%d callbacks recycled objects during a live (false) eviction", freed.Load())
	}

	Unpin(holder) // the "slow" holder finally finishes
	Drain()
	if n := degradedPins.Load(); n != 0 {
		t.Fatalf("degradedPins = %d after Drain with the holder unpinned", n)
	}
}

// TestMomentaryBlockerIsNotEvicted: a slot that blocks the advance for less
// than the stall bound is given the CPU and never evicted, however many
// retires pile up behind it meanwhile.
func TestMomentaryBlockerIsNotEvicted(t *testing.T) {
	Drain()
	base := evictions.Load()
	holder := Pin()
	var freed atomic.Int64
	for range 4 * yieldPending / advanceEvery {
		retire(countingFree(&freed))
	}
	Unpin(holder)
	if n := Drain(); n != 0 || evictions.Load() != base {
		t.Fatalf("Pending = %d and %d evictions after a momentary block", n, evictions.Load()-base)
	}
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
