package sched

import (
	"slices"
	"sync/atomic"
	"testing"
)

// allMutations is every seeded mutation.
const allMutations = SkipNeighborVLX<<1 - 1

// TestNothingRegisteredIsInert pins what the protocol layers rely on in
// production: with no goroutine registered, every point, a WaitZero on a
// drained counter and the dropped-help query return at once, whether or not
// a chaos run is active, and every mutation reads false.
func TestNothingRegisteredIsInert(t *testing.T) {
	check := func() {
		t.Helper()
		if n := registered.Load(); n != 0 {
			t.Fatalf("%d goroutines registered at the start of the test", n)
		}
		crossAll(1) // must not block or panic
		var zero atomic.Int64
		WaitZero(PointSnapDrain, &zero)
		if ChaosDropHelp() {
			t.Fatal("ChaosDropHelp() = true with nobody registered")
		}
		if Mutated(allMutations) {
			t.Fatalf("mutations armed: %#x", mutations.Load())
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
	for m := DropFreeze; m <= SkipNeighborVLX; m <<= 1 {
		if Mutated(allMutations) {
			t.Fatalf("a mutation is armed before %#x is set: %#x", m, mutations.Load())
		}
		SetMutation(m, true)
		if !Mutated(m) || Mutated(allMutations&^m) {
			t.Fatalf("arming %#x left the word at %#x", m, mutations.Load())
		}
		SetMutation(m, false)
	}
	if Mutated(allMutations) {
		t.Fatalf("mutations left armed: %#x", mutations.Load())
	}
}

// TestGoroutineHasOneOwner: the registry refuses a second registration of a
// goroutine, in both directions. An operation a running controller owns gets
// an inert worker from RegisterChaos and keeps parking at its points without
// drawing a fault; a goroutine a chaos run owns cannot be entered as a
// controller's worker.
func TestGoroutineHasOneOwner(t *testing.T) {
	if err := EnableChaos(ChaosConfig{Seed: 1, Default: ChaosPolicy{Panic: 1_000_000}, DropHelp: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()

	var c Controller
	c.Go("op", func() {
		mine := self()
		w := RegisterChaos(0)
		if w.run != nil {
			t.Error("RegisterChaos registered a goroutine a controller owns")
		}
		w.Close() // inert: must leave the controller's registration alone
		if self() != mine {
			t.Error("the controller's worker lost its registration")
		}
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
		t.Fatal("RegisterChaos refused an unowned goroutine")
	}
	if register(&Worker{c: &c}) {
		t.Fatal("a goroutine a chaos run owns was registered for a controller")
	}
	if self() != w {
		t.Fatal("the refused registration displaced the chaos worker")
	}
}
