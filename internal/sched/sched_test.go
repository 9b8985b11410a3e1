package sched

import (
	"slices"
	"sync/atomic"
	"testing"
)

// allMutations is every seeded mutation.
const allMutations = SkipScanDrain<<1 - 1

// TestNothingRegisteredIsInert pins what the protocol layers rely on in
// production: with no goroutine registered, every point, a WaitZero on a
// drained counter and the dropped-help query return at once, the slot hint
// comes back unchanged, whether or not a chaos run is active, and every
// mutation reads false.
func TestNothingRegisteredIsInert(t *testing.T) {
	check := func() {
		t.Helper()
		if n := atomic.LoadInt32(&registered); n != 0 {
			t.Fatalf("%d goroutines registered at the start of the test", n)
		}
		crossAll(1) // must not block or panic
		var zero int32
		WaitZero(PointSnapDrain, &zero)
		if ChaosDropHelp() {
			t.Fatal("ChaosDropHelp() = true with nobody registered")
		}
		if s := Slot(12345); s != 12345 {
			t.Fatalf("Slot(12345) = %d with nobody registered", s)
		}
		if Mutated(allMutations) {
			t.Fatalf("mutations armed: %#x", atomic.LoadUint32(&mutations))
		}
	}
	check()
	if err := EnableChaos(ChaosConfig{Seed: 1, Default: ChaosPolicy{Panic: 1_000_000}, DropHelp: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	check()
	if st := ReadChaosStats(); st != (ChaosStats{}) {
		t.Fatalf("unregistered crossings drew faults: %+v", st)
	}
}

// TestMutationsRoundTrip: every mutation reads false until it is armed,
// arming one arms no other, and disarming restores false.
func TestMutationsRoundTrip(t *testing.T) {
	for m := DropFreeze; m <= SkipScanDrain; m <<= 1 {
		if Mutated(allMutations) {
			t.Fatalf("a mutation is armed before %#x is set: %#x", m, atomic.LoadUint32(&mutations))
		}
		SetMutation(m, true)
		if !Mutated(m) || Mutated(allMutations&^m) {
			t.Fatalf("arming %#x left the word at %#x", m, atomic.LoadUint32(&mutations))
		}
		SetMutation(m, false)
	}
	if Mutated(allMutations) {
		t.Fatalf("mutations left armed: %#x", atomic.LoadUint32(&mutations))
	}
}

// TestOneDriverAtATime: a controller and a chaos run never drive the points
// together. While a controller runs, EnableChaos fails, and a worker that
// calls RegisterChaos gets an inert worker and keeps parking at its points
// without drawing a fault; while a chaos worker is registered, Run fails
// without running anything.
func TestOneDriverAtATime(t *testing.T) {
	var c Controller
	c.Go("op", func() {
		if err := EnableChaos(ChaosConfig{Seed: 1}); err == nil {
			DisableChaos()
			t.Error("EnableChaos succeeded while a controller runs")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	if err := EnableChaos(ChaosConfig{Seed: 1, Default: ChaosPolicy{Panic: 1_000_000}, DropHelp: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	c = Controller{}
	c.Go("op", func() {
		w := RegisterChaos(0)
		if w.run != nil {
			t.Error("RegisterChaos registered a controller's worker")
		}
		w.Close()       // inert: must leave the controller's count alone
		Point(PointLLX) // a scheduling decision, not a certain panic
		if ChaosDropHelp() {
			t.Error("a controller's worker drew a dropped help")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"op parked at llx", "op finished"}; !slices.Equal(c.Trace(), want) {
		t.Fatalf("trace %q, want %q", c.Trace(), want)
	}
	if st := ReadChaosStats(); st != (ChaosStats{}) {
		t.Fatalf("a controller's worker drew faults: %+v", st)
	}

	w := RegisterChaos(0)
	defer w.Close()
	if w.run == nil {
		t.Fatal("RegisterChaos refused a goroutine with no controller running")
	}
	c = Controller{}
	ran := false
	c.Go("op", func() { ran = true })
	if err := c.Run(); err == nil || ran {
		t.Fatalf("Run with a chaos worker registered: err %v, operation ran %t", err, ran)
	}
	if n := atomic.LoadInt32(&registered); n != 1 {
		t.Fatalf("%d registered after the refused Run, want the chaos worker alone", n)
	}
}
