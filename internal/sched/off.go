//go:build !sched

package sched

import (
	"runtime"
	"sync/atomic"
)

// Enabled reports whether the deterministic scheduler and fault knobs are
// compiled in. In the default build everything in this file is a constant
// or an empty function, so the instrumentation in the protocol layers folds
// away entirely.
const Enabled = false

// chaosArmed gates the runtime chaos hook (internal/chaos). It is the only
// cost a protocol layer pays at an instrumentation point when chaos is not
// running: one atomic load feeding a never-taken branch.
var chaosArmed atomic.Bool

// chaosPointHook and chaosDropHelpHook are installed once by internal/chaos
// before the first ArmChaos(true) and never replaced while armed; the
// armed-flag Store/Load pair orders the writes against every reader.
var (
	chaosPointHook    func(PointID)
	chaosDropHelpHook func() bool
)

// SetChaosHooks installs the chaos layer's callbacks. It must be called
// while chaos is disarmed (ArmChaos(false), no concurrent Point callers can
// observe the armed flag set); internal/chaos installs its hooks exactly
// once, before the first arm.
func SetChaosHooks(point func(PointID), dropHelp func() bool) {
	chaosPointHook = point
	chaosDropHelpHook = dropHelp
}

// ArmChaos enables or disables runtime chaos injection at the
// instrumentation points. Arming publishes the hooks installed by
// SetChaosHooks; disarming returns every point to its single-load fast
// path (the hooks stay installed, so a straggling reader that saw the flag
// set races with nothing).
func ArmChaos(on bool) { chaosArmed.Store(on) }

// ChaosArmed reports whether runtime chaos injection is armed.
func ChaosArmed() bool { return chaosArmed.Load() }

// Point is a potential preemption point. In the default build it reduces to
// one predictable branch on the chaos-armed flag; with chaos armed it gives
// the fault-injection layer (internal/chaos) a chance to perturb the caller.
func Point(id PointID) {
	if chaosArmed.Load() {
		chaosPointHook(id)
	}
}

// ChaosDropHelp reports whether the calling goroutine should skip one
// optional helping step (LLX's help-on-failure). The protocol layers query
// it only at steps whose omission is progress-neutral — helping there is an
// optimization, and lock-freedom is preserved because the failed operation
// retries and helps on its next attempt. Always false unless chaos is armed.
func ChaosDropHelp() bool {
	if chaosArmed.Load() {
		return chaosDropHelpHook()
	}
	return false
}

// WaitZero spins until the counter drains to zero. Protocol code must use it
// (never a bare spin) for any wait whose progress depends on another thread
// passing an instrumentation point: in the default build it is the obvious
// yield loop, while the sched build turns it into a controller-visible wait
// so the deterministic scheduler can run the counter's holder instead of
// spinning forever against a parked goroutine.
func WaitZero(_ PointID, v *atomic.Int64) {
	for v.Load() != 0 {
		runtime.Gosched()
	}
}

// DropFreeze reports whether the dropped-freeze protocol mutation is armed.
// Always false in the default build; the compiler removes the mutation
// branches that test it.
func DropFreeze() bool { return false }

// SkipValidate reports whether the skipped-validation mutation is armed.
// Always false in the default build.
func SkipValidate() bool { return false }

// SkipMarkedRead reports whether the skipped-marked-read mutation is armed.
// Always false in the default build.
func SkipMarkedRead() bool { return false }

// PrematureFree reports whether the premature-epoch-free mutation is armed.
// Always false in the default build.
func PrematureFree() bool { return false }

// ReuseRedecoratedLeaf reports whether the reused-leaf mutation of the tree
// engine's insertion is armed. Always false in the default build.
func ReuseRedecoratedLeaf() bool { return false }

// KeepSiblingDeco reports whether the kept-decoration mutation of the tree
// engine's deletion is armed. Always false in the default build.
func KeepSiblingDeco() bool { return false }
