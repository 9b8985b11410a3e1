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
// object into bucket e, and unpins. The epoch can now advance to e+1 — the
// reader's stamp matches e, so it does not block that one advance — but no
// further, because the reader never re-observes. At now = e+1 the correct
// rule (eligible once E+2 <= now) keeps the bucket; the mutated rule
// (E+1 <= now) frees it while the reader is still pinned.
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
}
