// Package sched is the instrumentation layer of the LLX/SCX stack's
// concurrency tests: one table of protocol points, the workers that are
// perturbed at them, and two drivers over both.
//
// The protocol layers (internal/llxscx, internal/epoch, internal/vcell and
// the trees' overwrite paths) call Point at the steps where interleaving
// matters: before a helper reads a descriptor, before a freezing CAS, before
// marking, before the update CAS and the commit CAS, inside a vcell publish
// bracket and before the publish itself, and at epoch retire/advance
// boundaries. A Point is one atomic load of the arming word (registered) and
// a branch that is never taken while it is zero, which is all production
// code and the ordinary test suites pay for it.
//
// One driver runs at a time, and only its workers are ever touched:
//
//   - A Controller (controller.go) runs a set of operations one at a time
//     and decides, at every point one of them reaches, which runs next; the
//     worker it released is the one there. Explore enumerates every schedule
//     of a bounded conflict window by depth-first search over those
//     decisions, replaying the operations from scratch for each one. Because
//     the structures under test are lock-free (a stalled SCX is completed by
//     whoever trips over it), running a single operation at a time can never
//     deadlock the system: helping substitutes for the parked goroutine.
//   - A chaos run (chaos.go) samples the unbounded space instead: every
//     point a registered goroutine crosses rolls, from a seeded per-worker
//     stream, a delay, a preemption, a panic or an indefinite park.
//
// SetMutation seeds the protocol mutations the self-tests use to prove that
// the linearizability checker, the reclamation tests and the per-operation
// invariant checks have teeth (see Mutation).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

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
	// word and the load of its argument block: a helper parked here can
	// resume on a descriptor whose owner has finished that SCX and published
	// the block of its next one.
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
	// advance of the version clock that linearizes the capture.
	PointSnapPublish
	// PointSnapDrain identifies Snapshot()'s wait, after it has advanced the
	// version clock, for the publish windows it found open (fast-path value
	// publishes and SCXs between stamp and install) to close:
	// epoch.DrainWindows. It is a WaitUntil site, not a Point: a capture that
	// a controller owns parks here until the windows' holders have run.
	PointSnapDrain
	// PointVCellDrain identifies a finalizer's post-commit wait for a
	// cell's publish brackets to drain before it loads the displaced value
	// (vcell.(*Cell).DrainPublishers). Like PointSnapDrain it is a wait
	// site, not a Point.
	PointVCellDrain
	// PointLLXRecheck fires in LLX between the reads of the record's mutable
	// fields and the re-read of its info word that validates them: an SCX
	// that runs while an LLX is parked here makes that LLX fail.
	PointLLXRecheck
	// PointScanWalk fires in a versioned walk (a live range scan, or a scan
	// of a snapshot view) before it loads and resolves each child pointer,
	// so an update can land between two of the walk's reads. It is last so
	// that the older points keep their numbers.
	PointScanWalk

	numPoints
)

// points is the point table. bracket marks the points inside a publish
// bracket (vcell publish and mark re-check, version stamp, the stamped SCX's
// update CAS) or Snapshot()'s capture window: a goroutine lost there holds a
// counter or a live-snapshot registration that nothing else can release,
// wedging every later capture, so chaos injects no panic and no abandonment
// at them. That is a failure the real runtime cannot produce (the bracket
// body makes no call that can panic, and the runtime never abandons a
// goroutine that is not blocked). Delays and preemption are allowed
// everywhere; they are what the enumerations explore at these points.
var points = [numPoints]struct {
	name    string
	bracket bool
}{
	PointLLX:          {name: "llx"},
	PointSCXFreeze:    {name: "scx-freeze"},
	PointSCXRead:      {name: "scx-read"},
	PointSCXMark:      {name: "scx-mark"},
	PointSCXUpdate:    {name: "scx-update", bracket: true},
	PointSCXCommit:    {name: "scx-commit"},
	PointVCellPublish: {name: "vcell-publish", bracket: true},
	PointVCellRecheck: {name: "vcell-recheck", bracket: true},
	PointEpochRetire:  {name: "epoch-retire"},
	PointEpochAdvance: {name: "epoch-advance"},
	PointVerStamp:     {name: "ver-stamp", bracket: true},
	PointSnapPublish:  {name: "snap-publish", bracket: true},
	PointSnapDrain:    {name: "snap-drain", bracket: true},
	PointVCellDrain:   {name: "vcell-drain"},
	PointLLXRecheck:   {name: "llx-recheck"},
	PointScanWalk:     {name: "scan-walk"},
}

// String returns the point's name for traces and failure reports.
func (p PointID) String() string {
	if p < 0 || p >= numPoints {
		return "unknown"
	}
	return points[p].name
}

// A Worker is the record of one instrumented goroutine. Exactly one driver
// owns it: c is set for an operation a Controller parks and resumes, run for
// a goroutine a chaos run rolls faults against.
type Worker struct {
	c      *Controller
	name   string
	slot   int // index in c's Go order: the epoch slot the worker pins
	fn     func()
	resume chan struct{}
	// ready, when non-nil, marks the worker wait-blocked (parked in
	// WaitUntil): the controller keeps it out of the runnable set until the
	// predicate reports true. Written by the worker goroutine strictly
	// before it parks and read by the controller goroutine strictly after
	// it receives the park event, so no lock is needed.
	ready func() bool

	run *chaosRun
	rng uint64 // splitmix64 state; touched only by the owning goroutine
}

// workers maps the goroutine id of every chaos worker to its record.
// Goroutines not in it (the test harness, runtime goroutines, the epoch
// watchdog) pass through every point untouched.
var workers sync.Map // goid int64 -> *Worker

// registered counts the entries of workers, plus one while a Controller
// runs. It is the only word Point, WaitZero, ChaosDropHelp and Slot load
// before they return while nobody is registered (production, benchmark
// prefill and drain, the stress harnesses' verification passes). It is a
// plain word used through sync/atomic's functions, which the compiler
// treats as intrinsics in every package: Point then inlines into the
// protocol layers' generic code wherever it is instantiated, where a method
// of atomic.Int32 would be called out of line from any package whose export
// data lacks its body.
var registered int32

// controlled is set while a Controller runs, and running is the worker it
// released, until that worker parks or finishes.
var controlled atomic.Bool
var running atomic.Pointer[Worker]

// register enters the calling goroutine into the registry as w.
func register(w *Worker) {
	workers.Store(goID(), w)
	atomic.AddInt32(&registered, 1)
}

// unregister removes the calling goroutine, which must be registered.
func unregister() {
	workers.Delete(goID())
	atomic.AddInt32(&registered, -1)
}

// self returns the calling goroutine's chaos worker, or nil. While a
// controller runs there is none, and no goroutine id is resolved.
func self() *Worker {
	if !controlled.Load() {
		if v, ok := workers.Load(goID()); ok {
			return v.(*Worker)
		}
	}
	return nil
}

// Point is a potential preemption or fault point. A goroutine no driver
// registered returns at once; a Controller's worker parks here, if the
// controller's point filter admits id, until it is scheduled again; a chaos
// worker rolls its policy for id.
func Point(id PointID) {
	if atomic.LoadInt32(&registered) != 0 {
		point(id)
	}
}

func point(id PointID) {
	if w := running.Load(); w != nil {
		if w.c.filter == nil || w.c.filter(id) {
			w.park(id)
		}
	} else if w := self(); w != nil {
		w.roll(id)
	}
}

// Slot returns the epoch slot the calling operation probes first: i for a
// running Controller's worker i (in Go order), whatever its stack, and hint
// for everyone else.
func Slot(hint uint64) uint64 {
	if atomic.LoadInt32(&registered) != 0 {
		if w := running.Load(); w != nil {
			return uint64(w.slot)
		}
	}
	return hint
}

// WaitZero waits until the counter drains to zero. Protocol code must use it
// or WaitUntil (never a bare spin) for any wait whose progress depends on
// another thread passing an instrumentation point.
func WaitZero(id PointID, v *int32) {
	if atomic.LoadInt32(v) == 0 {
		return
	}
	WaitUntil(id, func() bool { return atomic.LoadInt32(v) == 0 })
}

// WaitUntil waits until ready reports true; ready must read only atomics
// that other threads' progress changes. For the worker a running controller
// released this is NOT a free spin: one worker runs at a time, so spinning
// against a counter held by a parked sibling would hang the enumeration.
// Instead the worker parks as wait-blocked and the controller excludes it
// from the runnable set until ready holds, which forces the schedule to run
// the counters' holders first. The wait is not a scheduling decision of its
// own (the controller has no choice to make about a blocked worker), so it
// does not blow up the schedule space. Everyone else (unregistered
// goroutines, chaos workers, the concurrently running workers of an
// abandoned run) yields until ready holds.
func WaitUntil(id PointID, ready func() bool) {
	if ready() {
		return
	}
	if atomic.LoadInt32(&registered) != 0 {
		if w := running.Load(); w != nil {
			w.ready = ready
			w.park(id)
			w.ready = nil
		}
	}
	// A worker rescheduled before ready holds was abandoned mid-wait.
	for !ready() {
		runtime.Gosched()
	}
}

// ChaosDropHelp reports whether the calling goroutine should skip one
// optional helping step (LLX's help-on-failure). The protocol layers query
// it only at steps whose omission is progress-neutral: helping there is an
// optimization, and lock-freedom is preserved because the failed operation
// retries and helps on its next attempt. Only a chaos worker ever draws
// true.
func ChaosDropHelp() bool {
	return atomic.LoadInt32(&registered) != 0 && dropHelp()
}

// A Mutation is a seeded protocol bug. The self-tests arm one, run the
// checker that is supposed to notice, and require that it does. The set is
// process-global: a test that arms a mutation must not run in parallel with
// other tests (Explore already serializes itself) and must disarm it before
// it returns.
type Mutation uint32

const (
	// DropFreeze makes help() skip the freezing CAS on the first record of
	// every SCX's V sequence.
	DropFreeze Mutation = 1 << iota
	// SkipValidate makes a helper run an SCX from its descriptor's current
	// argument block without checking that the block's sequence number is
	// that of the SCX it set out to help.
	SkipValidate
	// SkipMarkedRead makes LLX take a record's finalized flag to be clear, so
	// it hands out snapshots of records a committed SCX has removed.
	SkipMarkedRead
	// PrematureFree makes epoch reclamation free objects after one epoch
	// advance instead of two (the E+1 bug the grace-period argument in
	// DESIGN.md rules out).
	PrematureFree
	// ReuseRedecoratedLeaf makes the tree engine's insertion keep the old
	// leaf as a child of the new internal node even when the policy assigned
	// it a different decoration (an overweight chromatic leaf, which must be
	// replaced by a weight-one copy).
	ReuseRedecoratedLeaf
	// KeepSiblingDeco makes the sibling a deletion promotes keep its own
	// decoration instead of the one the policy computes (for a chromatic
	// tree, its weight plus its removed parent's).
	KeepSiblingDeco
	// IgnoreSide makes lbst.Step.Internal place a fresh node's children as if
	// every step ran on side 0, so a step run on side 1 puts its near child
	// on the left: the bug of a mirrored step that reads one wrong side.
	IgnoreSide
	// SkipHelperWindow makes a process that runs an SCX some other process
	// started (a helper) open its stamp-to-install publish window on a word
	// no snapshot capture drains, as if helpers opened none.
	SkipHelperWindow
	// StampBeforeWindow makes an SCX run its commit hook, which reads the
	// version clock and stamps the new node, before it opens the publish
	// window instead of inside it.
	StampBeforeWindow
	// SkipNeighborCut makes lbst's bounded point queries (Successor and
	// Predecessor) walk the live tree instead of capturing a cut, so their
	// two descents may read two different states of it.
	SkipNeighborCut
	// SkipScanDrain makes lbst's captures (a live range scan's and a
	// snapshot's) walk their version without first waiting out the publish
	// windows open when they advanced the clock.
	SkipScanDrain
)

// mutations is the set of armed mutations, a plain word for the reason
// registered is one.
var mutations uint32

// SetMutation arms or disarms m.
func SetMutation(m Mutation, on bool) {
	if on {
		atomic.OrUint32(&mutations, uint32(m))
	} else {
		atomic.AndUint32(&mutations, ^uint32(m))
	}
}

// Mutated reports whether m is armed. The protocol layers read it where the
// surrounding condition is already rare, or at most once per SCX, deletion
// or drain.
func Mutated(m Mutation) bool { return atomic.LoadUint32(&mutations)&uint32(m) != 0 }

// goID returns the calling goroutine's id, parsed from the first line of its
// stack trace ("goroutine 123 [running]:"). The chaos registry keys on it;
// it costs a runtime.Stack call, which is paid only while chaos workers are
// registered.
func goID() int64 {
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
