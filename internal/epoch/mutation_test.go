package epoch

import (
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// TestPrematureFreeMutationCaught is the reclamation half of the seeded-
// mutation self-tests (the dropped-freeze half drives the linearizability
// checker; see the root sched tests): it constructs the exact configuration
// the E+2 grace period exists for and proves that shortening it to E+1 —
// the PrematureFree fault knob — frees an object while a reader that can
// still hold it is pinned. The same configuration under the correct rule
// must keep the object alive, so the test both validates the rule and
// demonstrates the check has teeth.
//
// The configuration: a reader pins at epoch e. A writer pins, retires an
// object at e, and unpins. The epoch can now advance to e+1 — the
// reader's stamp matches e, so it does not block that one advance — but no
// further, because the reader never re-observes. At now = e+1 the correct
// rule (eligible once E+2 <= now) keeps the object; the mutated rule
// (E+1 <= now) frees it while the reader is still pinned. The same test
// decides when a Recycler hands an object back, so the mutation reaches the
// SCX argument blocks too.
func TestPrematureFreeMutationCaught(t *testing.T) {

	scenario := func(t *testing.T) (freedWhilePinned bool) {
		Drain()
		reader := Pin()
		writer := Pin()
		var freed atomic.Bool
		Retire(writer, new(int), func(_ *Guard, _ any) bool {
			freed.Store(true)
			return true
		})
		Unpin(writer)

		Drain() // advances e -> e+1, then drains every quiescent slot
		freedWhilePinned = freed.Load()

		Unpin(reader)
		Drain()
		if !freed.Load() {
			t.Fatal("object never freed even after the reader unpinned")
		}
		return freedWhilePinned
	}

	t.Run("correct-grace-period", func(t *testing.T) {
		if scenario(t) {
			t.Fatal("object freed while a pinned reader could still hold it (E+2 rule violated)")
		}
	})

	t.Run("mutated-grace-period", func(t *testing.T) {
		sched.SetMutation(sched.PrematureFree, true)
		defer sched.SetMutation(sched.PrematureFree, false)
		if !scenario(t) {
			t.Fatal("premature-free mutation not caught: the E+1 rule did not free early, so this check has no teeth")
		}
	})

	// The Recycler configuration: a reader pins at e, an object is put at e,
	// and the epoch moves to e+1, which the reader does not block; Get must
	// not hand the object back while the reader is still pinned.
	recycledWhilePinned := func() bool {
		Drain()
		var r Recycler[int]
		reader := Pin()
		defer Unpin(reader)
		r.Put(new(int))
		Drain()
		return r.Get() != nil
	}

	t.Run("mutated-recycler", func(t *testing.T) {
		if recycledWhilePinned() {
			t.Fatal("Get returned an object put while a reader that is still pinned was (E+2 rule violated)")
		}
		sched.SetMutation(sched.PrematureFree, true)
		defer sched.SetMutation(sched.PrematureFree, false)
		if !recycledWhilePinned() {
			t.Fatal("premature-free mutation not caught by a Recycler: Get kept the object for two epochs, so the mutation does not reach the argument blocks")
		}
	})
}

// TestLateMarkRaiseMutationCaught: a pin on a slot past the hint range holds
// the epoch back from the moment its claim is re-validated, because Pin
// raises the slot mark over the slot before it claims it, and every advance
// scans the slots below the mark. The LateMarkRaise mutation raises the mark
// at the end of Pin instead, and an advance in between runs past the pin.
//
// The test fills the hint range and claims the first slot past it. A
// leftover retiree planted on that slot is what runs the test's code inside
// that Pin, between the re-validation and the end: Pin adopts what a
// previous owner left. Its callback releases the fillers, retires an object
// from another slot and drains. Under the correct order the new pin stops
// the epoch one past its own and the object stays; under the mutation the
// object is freed while the pin that could still reach it is live.
func TestLateMarkRaiseMutationCaught(t *testing.T) {
	if hintSlots == NumSlots {
		t.Skip("no slot lies past the hint range")
	}
	scenario := func(t *testing.T) (freedWhilePinned bool) {
		resetSlotMark(t)
		over := &slots[hintSlots]
		var fillers []*Guard
		var freed atomic.Bool
		over.retired.push(entry{free: func(*Guard, any) bool {
			for _, f := range fillers {
				Unpin(f)
			}
			w := Pin()
			Retire(w, new(int), func(*Guard, any) bool {
				freed.Store(true)
				return true
			})
			Unpin(w)
			Drain()
			freedWhilePinned = freed.Load()
			return true
		}}, 0)
		over.pending.Add(1)
		for g := Pin(); g != over; g = Pin() {
			if g.Slot() >= hintSlots {
				t.Fatalf("pinned slot %d past the hint range before slot %d", g.Slot(), hintSlots)
			}
			fillers = append(fillers, g)
		}
		Unpin(over)
		Drain()
		if !freed.Load() {
			t.Fatal("object never freed even after the overflow pin was released")
		}
		return freedWhilePinned
	}

	t.Run("correct-order", func(t *testing.T) {
		if scenario(t) {
			t.Fatal("object freed while a pin past the hint range could still hold it")
		}
	})
	t.Run("mutated-order", func(t *testing.T) {
		sched.SetMutation(sched.LateMarkRaise, true)
		defer sched.SetMutation(sched.LateMarkRaise, false)
		if !scenario(t) {
			t.Fatal("late-mark-raise mutation not caught: the advances saw the overflow pin, so this check has no teeth")
		}
	})
}
