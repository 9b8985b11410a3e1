package epoch

import (
	"sync/atomic"
	"testing"
)

// TestSnapPinParksAndReleaseFrees is the core lifecycle: an object retired
// while a snapshot pin is live must be parked (not freed) for as long as the
// pin is held, and must take one more grace period and recycle after the last
// covering pin is released.
func TestSnapPinParksAndReleaseFrees(t *testing.T) {
	Drain()
	discardParked()

	s := SnapPin()
	if s == nil {
		t.Fatal("SnapPin returned nil with reclamation enabled")
	}
	if got := SnapPinned(); got != 1 {
		t.Fatalf("SnapPinned() = %d with one pin live, want 1", got)
	}

	var freed atomic.Int64
	g := Pin()
	obj := new(int)
	Retire(g, obj, countingFree(&freed))
	Unpin(g)

	// The grace period completes under the live pin: the object must be
	// parked, not freed, no matter how often the epoch is drained.
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 {
		t.Fatal("object freed while a snapshot pin covering its retire epoch was live")
	}
	if ParkedCount() == 0 {
		t.Fatal("object neither freed nor parked after drain under a live pin")
	}
	if p := Pending(); p == 0 {
		t.Fatal("Pending() does not account for parked retirees")
	}

	s.Release()
	if got := SnapPinned(); got != 0 {
		t.Fatalf("SnapPinned() = %d after release, want 0", got)
	}
	// Release re-retires the parked object; one more grace period frees it.
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after release+drain, want 1", got)
	}
	if ParkedCount() != 0 {
		t.Fatalf("ParkedCount() = %d after release+drain, want 0", ParkedCount())
	}
}

// TestOverlappingSnapPins checks that parked retirees stay parked until the
// LAST covering pin is released, regardless of release order.
func TestOverlappingSnapPins(t *testing.T) {
	Drain()
	discardParked()

	s1 := SnapPin()
	s2 := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if freed.Load() != 0 || ParkedCount() == 0 {
		t.Fatalf("object not parked under two live pins (freed=%d parked=%d)", freed.Load(), ParkedCount())
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
	discardParked()

	// Retire first, then advance the epoch once so the pin registers at a
	// strictly later epoch than the retiree's bucket, then pin and drain.
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	tryAdvance()

	s := SnapPin()
	defer s.Release()
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object retired before the pin freed %d times under it, want 1 (parked=%d)", got, ParkedCount())
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
	if got := SnapPinned(); got != 0 {
		t.Fatalf("SnapPinned() = %d after cycling, want 0", got)
	}
}

// TestDiscardAllDropsParked: the full-quiescence reset abandons parked
// retirees to the garbage collector instead of freeing them through their
// callbacks.
func TestDiscardAllDropsParked(t *testing.T) {
	Drain()
	discardParked()

	s := SnapPin()
	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)
	for i := 0; i < 4; i++ {
		Drain()
	}
	if ParkedCount() == 0 {
		t.Fatal("object not parked under the live pin")
	}
	DiscardAll()
	if ParkedCount() != 0 {
		t.Fatalf("ParkedCount() = %d after DiscardAll, want 0", ParkedCount())
	}
	if freed.Load() != 0 {
		t.Fatal("DiscardAll ran free callbacks on parked retirees")
	}
	s.Release()
}
