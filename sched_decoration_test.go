package repro

// Seeded mutations of the one place where the tree engine acts on a
// decoration its balancing policy assigns (internal/lbst: tryInsert and
// tryDelete), and of the one place where it acts on the side a rebalancing
// step runs on (lbst.Step.Internal). Each must be caught by the per-operation
// fuzz of FuzzOrderedMapAgainstModel - the same interpreter, the same seed
// corpus - in a chromatic tree: the first two as unequal weighted path
// lengths, the third as keys out of order.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dict/dicttest"
	"repro/internal/epoch"
	"repro/internal/sched"
)

// failureRecorder is a testing.TB whose Fatalf records the message and ends
// the calling goroutine instead of failing the test.
type failureRecorder struct {
	testing.TB
	failure string
}

func (r *failureRecorder) Helper() {}

func (r *failureRecorder) Fatalf(format string, args ...any) {
	r.failure = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// firstFuzzFailure runs the fuzz seed corpus against the named template tree
// and returns the first failure the per-operation checks report, or "". The
// goroutine a failure ends must not hold an epoch slot: one left pinned stops
// the epoch for the rest of the process, and every later retiree with it.
func firstFuzzFailure(t *testing.T, name string) string {
	defer func() {
		if n := epoch.Stats().PinnedSlots; n != 0 {
			t.Fatalf("%d epoch slots left pinned by the fuzz corpus", n)
		}
	}()
	for _, tgt := range templateTrees() {
		if tgt.Name != name {
			continue
		}
		for _, data := range fuzzSeedCorpus() {
			rec := &failureRecorder{TB: t}
			done := make(chan struct{})
			go func() {
				defer close(done)
				dicttest.FuzzOps(rec, tgt, ident, ident, data)
			}()
			<-done
			if rec.failure != "" {
				return rec.failure
			}
		}
		return ""
	}
	t.Fatalf("no template tree target named %q", name)
	return ""
}

func TestDecorationMutationsCaught(t *testing.T) {
	for _, tc := range []struct {
		name, tree string
		mutation   sched.Mutation
		caughtAs   string
	}{
		// An overweight leaf only survives until the next insertion beside it
		// where violations are tolerated, so this one needs Chromatic6.
		{"insertion reuses an overweight old leaf", "Chromatic6", sched.ReuseRedecoratedLeaf, "unequal weighted path lengths"},
		{"promoted sibling keeps its own weight", "Chromatic", sched.KeepSiblingDeco, "unequal weighted path lengths"},
		// The first step a run takes on side 1 swaps two subtrees, and the
		// content check that follows the operation reads the keys out of
		// order, before any later operation can spin on what was installed.
		{"a step on side 1 places its children as on side 0", "Chromatic", sched.IgnoreSide, "the model's sorted keys are"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if msg := firstFuzzFailure(t, tc.tree); msg != "" {
				t.Fatalf("the healthy engine fails the per-operation fuzz: %s", msg)
			}
			sched.SetMutation(tc.mutation, true)
			defer sched.SetMutation(tc.mutation, false)
			msg := firstFuzzFailure(t, tc.tree)
			if !strings.Contains(msg, tc.caughtAs) {
				t.Fatalf("mutation not caught as %q; first failure: %q", tc.caughtAs, msg)
			}
			t.Logf("mutation caught: %s", msg)
		})
	}
}
