package epoch

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// TestSnapPinParksAndReleaseFrees is the core lifecycle: an object retired
// while a snapshot pin is live must stay pending (not freed) for as long as
// the pin is held, and must recycle once the last covering pin is released.
func TestSnapPinParksAndReleaseFrees(t *testing.T) {
	Drain()

	s := SnapPin()
	if s == nil {
		t.Fatal("SnapPin returned nil with reclamation enabled")
	}
	if got := Stats().SnapPins; got != 1 {
		t.Fatalf("Stats().SnapPins = %d with one pin live, want 1", got)
	}

	var freed atomic.Int64
	g := Pin()
	obj := new(int)
	Retire(g, obj, countingFree(&freed))
	Unpin(g)

	// The grace period completes under the live pin: the object must stay
	// pending, not freed, no matter how often the epoch is drained.
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 {
		t.Fatal("object freed while a snapshot pin covering its retire epoch was live")
	}
	if p := Pending(); p != 1 {
		t.Fatalf("Pending() = %d with one retiree held by a snapshot pin, want 1", p)
	}

	s.Release()
	if got := Stats().SnapPins; got != 0 {
		t.Fatalf("Stats().SnapPins = %d after release, want 0", got)
	}
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after release+drain, want 1", got)
	}
	if p := Pending(); p != 0 {
		t.Fatalf("Pending() = %d after release+drain, want 0", p)
	}
}

// TestReleaseFreesWithoutAnotherGracePeriod: a retiree the last covering pin
// held is past its grace period already, and the released view was its only
// reader left, so the first drain after Release frees it at the epoch it
// finds, without the epoch moving again.
func TestReleaseFreesWithoutAnotherGracePeriod(t *testing.T) {
	Drain()

	s := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	Drain()
	if freed.Load() != 0 {
		t.Fatal("object freed while a snapshot pin covering its retire epoch was live")
	}

	s.Release()
	e := globalEpoch.Load()
	if !g.state.CompareAndSwap(0, e) {
		t.Fatal("the retiring slot was claimed by someone else")
	}
	g.drain(e)
	g.state.Store(0)
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times by the first drain after release, want 1", got)
	}
	if got := globalEpoch.Load(); got != e {
		t.Fatalf("the epoch moved from %d to %d", e, got)
	}
}

// TestOverlappingSnapPins checks that held retirees stay pending until the
// LAST covering pin is released, regardless of release order.
func TestOverlappingSnapPins(t *testing.T) {
	Drain()

	s1 := SnapPin()
	s2 := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 || Pending() != 1 {
		t.Fatalf("object not held under two live pins (freed=%d pending=%d)", freed.Load(), Pending())
	}

	s1.Release()
	Drain()
	if freed.Load() != 0 {
		t.Fatal("object freed while the second covering pin was still live")
	}

	s2.Release()
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after both pins released, want 1", got)
	}
}

// TestRetireeBelowPinEpochIsNotParked: a snapshot pin only holds objects that
// were retired at or after its registration epoch - ordinary reclamation of
// everything older (which the snapshot cannot reach) proceeds at full rate
// while the pin is held.
func TestRetireeBelowPinEpochIsNotParked(t *testing.T) {
	Drain()

	// Retire first, then advance the epoch once so the pin registers at a
	// strictly later epoch than the retiree's stamp, then pin and drain.
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	tryAdvance()

	s := SnapPin()
	defer s.Release()
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object retired before the pin freed %d times under it, want 1 (pending=%d)", got, Pending())
	}
}

// TestSnapSlotReuse cycles far more pins than there are slots: every release
// must return its slot, so sequential pin/release never exhausts the
// registry.
func TestSnapSlotReuse(t *testing.T) {
	for i := 0; i < 4*numSnapSlots; i++ {
		s := SnapPin()
		if s == nil {
			t.Fatalf("SnapPin returned nil on cycle %d", i)
		}
		s.Release()
	}
	if got := Stats().SnapPins; got != 0 {
		t.Fatalf("Stats().SnapPins = %d after cycling, want 0", got)
	}
}

// TestSnapPinProbesFromTheOperationSlot: a capture first tries the snap slot
// its goroutine's operations start at (worker i of a controller: slot i), so
// concurrent captures claim different lines, and the mark stays above a
// slot once it has been claimed.
func TestSnapPinProbesFromTheOperationSlot(t *testing.T) {
	schedules, violations := sched.Explore(sched.Options{}, func(c *sched.Controller) error {
		var got [3]*SnapGuard
		for i := range got {
			c.Go(fmt.Sprint("capture-", i), func() {
				got[i] = SnapPin()
				got[i].Release()
			})
		}
		if err := c.Run(); err != nil {
			return err
		}
		for i, s := range got {
			if s != &snapSlots[i] {
				return fmt.Errorf("worker %d claimed another snap slot than %d", i, i)
			}
			if snapMark.Load() <= int64(i) {
				return fmt.Errorf("snap slot %d is not marked claimed", i)
			}
		}
		return nil
	})
	for _, v := range violations {
		t.Errorf("schedule %v: %v", v.Schedule, v.Err)
	}
	if schedules != 6 { // the orders in which three one-step workers run
		t.Fatalf("explored %d schedules, want 6", schedules)
	}
	if got := Stats().SnapPins; got != 0 {
		t.Fatalf("Stats().SnapPins = %d after every pin was released, want 0", got)
	}
}

// TestDiscardAllDropsParked: the full-quiescence reset abandons retirees a
// snapshot pin holds to the garbage collector instead of freeing them
// through their callbacks.
func TestDiscardAllDropsParked(t *testing.T) {
	Drain()

	s := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if p := Pending(); p != 1 {
		t.Fatalf("Pending() = %d with one retiree held by the live pin, want 1", p)
	}
	DiscardAll()
	if p := Pending(); p != 0 {
		t.Fatalf("Pending() = %d after DiscardAll, want 0", p)
	}
	s.Release()
	Drain()
	if freed.Load() != 0 {
		t.Fatal("DiscardAll ran free callbacks on held retirees")
	}
}

// TestPushKeepsStampOrder: a pass over a retire list stops at the first
// entry it must keep, which is sound only because the stamps never decrease
// along the list. Under -tags reclaimcheck a push that breaks the order
// panics.
func TestPushKeepsStampOrder(t *testing.T) {
	if !PoisonCheck {
		t.Skip("the stamp-order assertion needs -tags reclaimcheck")
	}
	var q fifo[int]
	q.push(1, 5)
	q.push(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("push of a stamp below the tail's did not panic")
		}
	}()
	q.push(3, 4)
}
