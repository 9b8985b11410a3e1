package repro

import (
	"testing"

	"repro/internal/dict/dicttest"
)

// These tests run the chaos-mode stress suites (internal/dict/dicttest's
// chaos.go) over every LLX/SCX template tree in the benchmark registry.
// Unlike the schedule enumerations, which explore adversarial
// interleavings deterministically at a handful of points, chaos injection
// perturbs the same code probabilistically — delays, preemption,
// dropped optional helping, workers parked indefinitely mid-operation, and
// injected panics — so the whole stack (trees, LLX/SCX, epochs and their
// stall eviction) is exercised under sustained degraded conditions rather
// than a scripted schedule.
//
// The suites run under -race in CI (the chaos-stress job), with
// DICTTEST_SEED echoed on failure for replay.

// TestChaosChurnStress: shared-window churn with delays, preemption,
// dropped helping and abandoned workers; histories must linearize, every
// operation must complete once parked workers are released, and the
// retires behind a parked worker's stale pin must evict it once it outlasts
// the stall bound.
func TestChaosChurnStress(t *testing.T) {
	for _, tgt := range templateTrees() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ChaosChurnStress(t, tgt, 4, 600, ident, ident)
		})
	}
}

// TestChaosCrashStress: workers panic at random instrumentation points
// mid-operation; the deferred epoch unpins must release their pins during
// unwinding, the structure must stay fully usable, invariants must hold,
// and pending reclamation must drain to zero.
func TestChaosCrashStress(t *testing.T) {
	for _, tgt := range templateTrees() {
		t.Run(tgt.Name, func(t *testing.T) {
			dicttest.ChaosCrashStress(t, tgt, 4, 800, ident, ident)
		})
	}
}
