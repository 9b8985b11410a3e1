// Package sched provides deterministic schedule exploration and fault
// injection for the LLX/SCX stack's concurrency tests.
//
// The protocol layers (internal/llxscx, internal/epoch, internal/vcell and
// the trees' overwrite paths) call Point at the steps where interleaving
// matters: before a helper reads a descriptor, before a freezing CAS, before
// marking, before the update CAS and the commit CAS, inside a vcell publish
// bracket and before the publish itself, and at epoch retire/advance
// boundaries. In the default build these calls compile to empty inlined
// functions — the production binaries and the ordinary test suites pay
// nothing for them. Building with
//
//	go test -tags sched
//
// turns each Point into a potential preemption: a test hands a set of
// operations to a Controller, which runs exactly one of them at a time and
// decides, at every reached point, which operation runs next. Explore then
// enumerates every schedule of a bounded conflict window by depth-first
// search over those decisions, replaying the operations from scratch for
// each one. Because the structures under test are lock-free (a stalled SCX
// is completed by whoever trips over it), running a single operation at a
// time can never deadlock the system: helping substitutes for the parked
// goroutine.
//
// The same build tag arms the fault knobs (SetDropFreeze, SetSkipValidate,
// SetSkipMarkedRead, SetPrematureFree, SetReuseRedecoratedLeaf,
// SetKeepSiblingDeco) that the self-tests use to seed protocol mutations —
// skipping the first freezing CAS of an SCX, trusting a reused descriptor's
// fields without re-validating its sequence number, an LLX that does not read
// the finalized flag, freeing epoch-retired memory one epoch early, or ignoring
// a decoration the balancing policy assigned in an insertion or a deletion —
// and prove that the linearizability checker, the reclamation tests and the
// per-operation invariant checks actually catch them. The tag follows
// the reclaimcheck convention (see internal/epoch).
package sched

import "runtime"

// PointID identifies one instrumented protocol step. The constants below
// are the complete set of yield/fault points compiled into the stack; a
// Controller can restrict scheduling decisions to a subset via
// Options.Points so the schedule space of an enumeration stays bounded.
type PointID int

const (
	// PointLLX fires at the top of LLX, before the record's info/state/marked
	// words are read.
	PointLLX PointID = iota
	// PointSCXFreeze fires in help() immediately before each freezing CAS.
	PointSCXFreeze
	// PointSCXRead fires in help() between the load of a descriptor's status
	// word and the reads of the fields that word is validated against
	// afterwards: a helper parked here can resume on a descriptor whose
	// owner has finished that SCX and started its next one.
	PointSCXRead
	// PointSCXMark fires in help() after all records are frozen, before the
	// finalized records are marked.
	PointSCXMark
	// PointSCXUpdate fires in help() immediately before the update CAS on
	// the mutable field.
	PointSCXUpdate
	// PointSCXCommit fires in help() immediately before the CAS that
	// publishes the Committed state.
	PointSCXCommit
	// PointVCellPublish fires at the top of vcell.(*Cell).Swap, before the
	// value is published.
	PointVCellPublish
	// PointVCellRecheck fires in the overwrite paths' publish brackets,
	// between BeginPublish and the finalized/marked check that decides
	// whether the publish may proceed.
	PointVCellRecheck
	// PointEpochRetire fires at the top of epoch.Retire.
	PointEpochRetire
	// PointEpochAdvance fires immediately before an epoch-advance attempt.
	PointEpochAdvance
	// PointVerStamp fires in the trees' commit hooks immediately before the
	// version-stamp CAS that orders a committed SCX against snapshot capture
	// (the hook — and therefore the stamp — runs after the finalize marks and
	// before the update CAS publishes the new subtree; see the "Versioned
	// snapshots" section of DESIGN.md).
	PointVerStamp
	// PointSnapPublish fires in Snapshot() between the live-snapshot
	// registration (which closes the in-place overwrite fast path) and the
	// version read that linearizes the capture.
	PointSnapPublish
	// PointSnapDrain identifies Snapshot()'s post-version-read wait for the
	// in-flight publish windows (fast-path value publishes and stamp→install
	// brackets) to drain. It is a WaitZero site, not a Point: in the sched
	// build the capture parks here until the counter's holders have run.
	PointSnapDrain
	// PointVCellDrain identifies a finalizer's post-commit wait for a
	// cell's publish brackets to drain before it loads the displaced value
	// (vcell.(*Cell).DrainPublishers). Like PointSnapDrain it is a WaitZero
	// site, not a Point.
	PointVCellDrain
	// PointLLXRecheck fires in LLX between the reads of the record's mutable
	// fields and the re-read of its info word that validates them: an SCX
	// that runs while an LLX is parked here makes that LLX fail. Only the
	// sched build has it (the default build's LLX pays for one point, at its
	// top), so chaos never sees it. It is last so that the older points keep
	// their numbers.
	PointLLXRecheck

	numPoints
)

// NumPoints is the number of defined instrumentation points. Layers that
// keep per-point state (internal/chaos's policy and counter tables) size
// their arrays with it.
const NumPoints = int(numPoints)

// String returns the point's name for traces and failure reports.
func (p PointID) String() string {
	switch p {
	case PointLLX:
		return "llx"
	case PointSCXFreeze:
		return "scx-freeze"
	case PointSCXRead:
		return "scx-read"
	case PointSCXMark:
		return "scx-mark"
	case PointSCXUpdate:
		return "scx-update"
	case PointSCXCommit:
		return "scx-commit"
	case PointVCellPublish:
		return "vcell-publish"
	case PointVCellRecheck:
		return "vcell-recheck"
	case PointEpochRetire:
		return "epoch-retire"
	case PointEpochAdvance:
		return "epoch-advance"
	case PointVerStamp:
		return "ver-stamp"
	case PointSnapPublish:
		return "snap-publish"
	case PointSnapDrain:
		return "snap-drain"
	case PointVCellDrain:
		return "vcell-drain"
	case PointLLXRecheck:
		return "llx-recheck"
	default:
		return "unknown"
	}
}

// GoID returns the calling goroutine's id, parsed from the first line of its
// stack trace ("goroutine 123 [running]:"). The controller's worker registry
// and internal/chaos's both key on it; it costs a runtime.Stack call, which
// only a running controller or armed chaos pays.
func GoID() int64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	const prefix = "goroutine "
	if len(s) > len(prefix) {
		s = s[len(prefix):]
	}
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
