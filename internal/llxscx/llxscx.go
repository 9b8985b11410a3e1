// Package llxscx implements the LLX, SCX and VLX synchronization primitives
// of Brown, Ellen and Ruppert ("Pragmatic primitives for non-blocking data
// structures", PODC 2013) from single-word compare-and-swap, as required by
// the tree update template of their PPoPP 2014 paper.
//
// LLX, SCX and VLX are multi-word generalizations of load-link,
// store-conditional and validate. They operate on Data-records: fixed-size
// records with a set of mutable fields (child pointers) and any number of
// immutable fields. LLX(r) takes a snapshot of r's mutable fields.
// SCX(V, R, fld, new) atomically verifies that no record in V changed since
// the caller's linked LLXs, stores new into the single mutable field fld,
// and finalizes every record in R. VLX(V) verifies that no record in V has
// changed since the caller's linked LLXs.
//
// A Data-record of concrete node type N embeds a Record[N] and implements
// the DataRecord[N] interface so the primitives can reach its
// synchronization state and mutable fields. Instead of the per-process
// tables used in the original pseudocode, a successful LLX returns a Linked
// value carrying the evidence (observed descriptor and snapshot); the caller
// passes these Linked values to SCX or VLX, which expresses exactly the same
// "linked LLX" relationship explicitly.
//
// Reclamation: the protocol's ABA-freedom requires that descriptors and
// nodes are never recycled while any process can still reach them. The
// original port delegated that wholesale to the garbage collector (as the
// paper's Java implementation does); descriptors are now recycled through a
// per-structure Pool instead. A descriptor carries a reference count — one
// per record it is currently installed in, one per live descriptor that
// lists it as freezing-CAS evidence, plus the initiator's bias — and is
// handed to internal/epoch for a grace period only when the count reaches
// zero, after which no helper or snapshot holder can still name it. SCXP is
// the pooled entry point; SCXFixed keeps the allocate-fresh behaviour (and
// is the fallback when epoch reclamation is compiled out). The full safety
// argument is re-derived in DESIGN.md ("Epoch reclamation and the ABA
// re-derivation").
package llxscx

import (
	"sync/atomic"

	"repro/internal/sched"
)

// MaxMutable is the maximum number of mutable fields a Data-record may
// expose to LLX. Binary trees use 2; k-ary structures may use up to this
// limit.
const MaxMutable = 4

// MaxV is the maximum length of the V sequence (and therefore of the R
// subsequence) accepted by SCXFixed and VLXFixed, and the capacity of the
// inline evidence arrays embedded in every SCX-record. It is sized for the
// largest update any tree in this repository performs: the chromatic tree's
// W3/W4 rebalancing steps (and their mirrors) link six LLXs and finalize
// five records. Keeping the bound tight keeps descriptors compact - one
// heap object per SCX, no side slices - which is the property the paper's
// Java implementation relies on for its update throughput.
const MaxV = 6

// Status is the outcome of an LLX.
type Status int

const (
	// Snapshot means the LLX obtained a consistent snapshot of the record's
	// mutable fields and may be linked to a subsequent SCX or VLX.
	Snapshot Status = iota
	// Fail means the LLX was concurrent with an SCX on the record and must
	// be retried (or the enclosing update aborted).
	Fail
	// Finalized means the record has been finalized (removed from the data
	// structure) by a committed SCX.
	Finalized
)

// String returns a readable name for the status.
func (s Status) String() string {
	switch s {
	case Snapshot:
		return "Snapshot"
	case Fail:
		return "Fail"
	case Finalized:
		return "Finalized"
	default:
		return "Unknown"
	}
}

// descriptor states.
const (
	stateInProgress int32 = iota
	stateCommitted
	stateAborted
)

// descriptor is an SCX-record: it describes one SCX so that any process can
// help complete it. All evidence is stored inline in fixed-capacity arrays
// (bounded by MaxV), so initiating an SCX allocates at most one object: the
// descriptor itself, which must stay heap-allocated while helpers retain
// pointers to it. Descriptors created through SCXP are recycled via their
// Pool once their reference count drains (see the package comment);
// descriptors created through SCXFixed have a nil pool and are left to the
// garbage collector.
type descriptor[N any] struct {
	state     atomic.Int32
	allFrozen atomic.Bool

	// refs counts the reasons this descriptor must stay alive: +1 while the
	// initiating SCXP runs (the bias), +1 per record whose info field it is
	// installed in, and +1 per live pooled descriptor listing it in infos
	// (the freezing-CAS expected value must not be recycled while a helper
	// of that descriptor might still CAS with it). Only used when pool is
	// non-nil.
	refs atomic.Int32

	// retired flips once, when refs first reaches zero, so the descriptor
	// is pushed onto its pool's deferred-retire stack exactly once even if
	// a late helper transiently resurrects the count.
	retired atomic.Bool

	// pool is the owning Pool for SCXP-created descriptors, nil for
	// SCXFixed ones (which also disables all reference accounting).
	pool *Pool[N]

	// dnext links the pool's deferred-retire stack.
	dnext *descriptor[N]

	// recs[i] is the synchronization record of the i'th element of V and
	// infos[i] is the descriptor observed by the linked LLX of that element
	// (the expected value of the freezing CAS). nV is the length of V.
	recs  [MaxV]*Record[N]
	infos [MaxV]*descriptor[N]
	nV    int

	// toMark[:nMark] are the synchronization records of the elements of R,
	// which are finalized when the SCX commits.
	toMark [MaxV]*Record[N]
	nMark  int

	// fld is the single mutable field changed from old to new.
	fld      *atomic.Pointer[N]
	old, new *N
}

// Record is the per-Data-record synchronization state used by LLX and SCX.
// Embed one Record in every node type. The zero value is ready to use.
type Record[N any] struct {
	info   atomic.Pointer[descriptor[N]]
	marked atomic.Bool
}

// Marked reports whether the record has been finalized by a committed SCX.
// A finalized record has been removed from the data structure and its
// mutable fields will never change again.
func (r *Record[N]) Marked() bool { return r.marked.Load() }

// DataRecord is the constraint a node type must satisfy so that the
// primitives can manipulate it. A node exposes its embedded Record and its
// mutable fields (child pointers) by index.
type DataRecord[N any] interface {
	*N
	// LLXRecord returns the node's embedded synchronization Record.
	LLXRecord() *Record[N]
	// NumMutable returns the number of mutable fields (at most MaxMutable).
	NumMutable() int
	// Mutable returns the i'th mutable field, 0 <= i < NumMutable().
	Mutable(i int) *atomic.Pointer[N]
}

// Linked is the evidence returned by a successful LLX. It captures the
// snapshot of the record's mutable fields together with the synchronization
// state observed, and is passed to SCX or VLX to establish the "linked LLX"
// relationship of the original specification.
type Linked[N any] struct {
	node *N
	rec  *Record[N]
	info *descriptor[N]
	vals [MaxMutable]*N
	n    int
}

// Node returns the Data-record this evidence refers to.
func (l Linked[N]) Node() *N { return l.node }

// NumChildren returns the number of mutable fields captured in the snapshot.
func (l Linked[N]) NumChildren() int { return l.n }

// Child returns the value of the i'th mutable field at the time of the LLX.
func (l Linked[N]) Child(i int) *N { return l.vals[i] }

// Valid reports whether the Linked value was produced by a successful LLX.
func (l Linked[N]) Valid() bool { return l.rec != nil }

// LLX attempts to take a snapshot of the mutable fields of r. It returns the
// snapshot evidence and Snapshot on success, a zero Linked and Fail if it was
// concurrent with an SCX involving r, or a zero Linked and Finalized if r has
// been finalized.
func LLX[P DataRecord[N], N any](r P) (Linked[N], Status) {
	sched.Point(sched.PointLLX)
	rec := r.LLXRecord()
	rinfo := rec.info.Load()
	state := stateAborted
	if rinfo != nil {
		state = rinfo.state.Load()
	}
	// The marked flag must be read after the descriptor state: help() marks
	// the finalized records before it publishes the Committed state, so a
	// record finalized by rinfo's SCX is guaranteed to be seen as marked
	// here. Reading it earlier admits a race in which LLX hands out a
	// snapshot of a record that has already been removed from the tree,
	// allowing a later SCX to resurrect it.
	marked1 := rec.marked.Load()
	if state == stateAborted || (state == stateCommitted && !marked1) {
		// The record is not being changed by an in-progress SCX: read the
		// mutable fields and confirm nothing froze the record meanwhile.
		var lk Linked[N]
		lk.node = (*N)(r)
		lk.rec = rec
		lk.info = rinfo
		lk.n = r.NumMutable()
		for i := 0; i < lk.n; i++ {
			lk.vals[i] = r.Mutable(i).Load()
		}
		if rec.info.Load() == rinfo {
			return lk, Snapshot
		}
	}
	// The record is (or was) frozen by an SCX. Help it complete, then report
	// Finalized or Fail as appropriate.
	curState := stateAborted
	if rinfo != nil {
		curState = rinfo.state.Load()
	}
	if (curState == stateCommitted || (curState == stateInProgress && help(rinfo))) && marked1 {
		return Linked[N]{}, Finalized
	}
	// Helping the blocker before reporting Fail is an optimization, not an
	// obligation: the caller's retry re-encounters any still-frozen record
	// and helps then. That makes it a legal target for chaos's dropped-help
	// injection (a probabilistic skip can delay completion but never
	// prevent it, because help-on-encounter sites are still reached on
	// every retry).
	if cur := rec.info.Load(); cur != nil && cur.state.Load() == stateInProgress && !sched.ChaosDropHelp() {
		help(cur)
	}
	return Linked[N]{}, Fail
}

// SCX attempts to atomically store new into *fld and finalize every record in
// finalize, provided that no record in v has changed since the linked LLX
// that produced its evidence. v must be ordered as required by the tree
// update template (Constraint 2 / postcondition PC8); finalize must identify
// a subset of the records in v; the record containing fld must be in v; and
// old must be the value of *fld observed by that record's linked LLX.
//
// SCX returns true if it modified the data structure and false if it failed
// because some record in v changed since its linked LLX.
//
// new must be freshly obtained - never a value that fld (or any mutable
// field) has held while any current operation could have observed it.
// Helpers of a committed SCX retry the update CAS unconditionally, so the
// protocol's ABA-freedom rests on stored values never recurring; reusing an
// existing node is only sound as a child of a freshly obtained subtree
// root, never as new itself. A node recycled through an epoch-guarded pool
// counts as freshly obtained: the grace period guarantees no helper or
// snapshot holder can still name its previous incarnation (DESIGN.md
// re-derives this).
//
// SCX is the slice-based convenience wrapper; v must not exceed MaxV
// entries. Hot paths that stage their evidence in stack arrays should call
// SCXFixed directly, which performs exactly one allocation (the descriptor).
func SCX[P DataRecord[N], N any](v []Linked[N], finalize []P, fld *atomic.Pointer[N], old, new *N) bool {
	var va [MaxV]Linked[N]
	var ra [MaxV]P
	copy(va[:], v)
	copy(ra[:], finalize)
	return SCXFixed(&va, len(v), &ra, len(finalize), fld, old, new)
}

// SCXFixed is the slice-free SCX entry point: v holds the first nv linked
// LLX results and finalize the first nf records to finalize, both staged in
// caller-owned fixed-capacity arrays (typically on the caller's stack). The
// contract is exactly SCX's. nv must be in [1, MaxV] and nf in [0, nv];
// out-of-range lengths panic, since they indicate an update whose V sequence
// does not fit the inline descriptor storage (raise MaxV if a new data
// structure legitimately needs a larger update).
func SCXFixed[P DataRecord[N], N any](v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	if nv < 1 || nv > MaxV || nf < 0 || nf > nv {
		panic("llxscx: SCXFixed sequence lengths out of range")
	}
	d := &descriptor[N]{
		nV:    nv,
		nMark: nf,
		fld:   fld,
		old:   old,
		new:   new,
	}
	for i := 0; i < nv; i++ {
		d.recs[i] = v[i].rec
		d.infos[i] = v[i].info
	}
	for i := 0; i < nf; i++ {
		d.toMark[i] = finalize[i].LLXRecord()
	}
	d.state.Store(stateInProgress)
	return help(d)
}

// VLX returns true if none of the records in v have changed since the linked
// LLXs that produced their evidence. It can be used to obtain an atomic
// snapshot of a set of Data-records. Unlike SCX, VLX accepts sequences of
// any length (ordered-query spine validations can be as long as the tree is
// tall); VLXFixed is the bounded-array variant for update-sized sequences.
func VLX[N any](v []Linked[N]) bool {
	for i := range v {
		if !validateOne(v[i].rec, v[i].info) {
			return false
		}
	}
	return true
}

// VLXFixed is the slice-free VLX entry point over the first n elements of a
// caller-owned fixed-capacity array. n must be in [0, MaxV].
func VLXFixed[N any](v *[MaxV]Linked[N], n int) bool {
	if n < 0 || n > MaxV {
		panic("llxscx: VLXFixed sequence length out of range")
	}
	for i := 0; i < n; i++ {
		if !validateOne(v[i].rec, v[i].info) {
			return false
		}
	}
	return true
}

// Evidence is the part of a Linked that VLX reads: the record and the
// descriptor its LLX observed, two words instead of a Linked's eight. A
// reader that consumes each snapshot's children as it goes and only needs to
// validate afterwards (a range scan LLXs every internal node under its
// window) keeps these instead, so its evidence buffer stays small enough
// for the stack.
type Evidence[N any] struct {
	rec  *Record[N]
	info *descriptor[N]
}

// Evidence returns l's validation evidence.
func (l Linked[N]) Evidence() Evidence[N] { return Evidence[N]{rec: l.rec, info: l.info} }

// VLXEvidence is VLX over compact evidence: it returns true if none of the
// records in v have changed since the LLXs the evidence was taken from.
func VLXEvidence[N any](v []Evidence[N]) bool {
	for i := range v {
		if !validateOne(v[i].rec, v[i].info) {
			return false
		}
	}
	return true
}

// validateOne checks a single linked LLX: the record's descriptor must be
// the one the LLX observed. On mismatch it helps any in-progress SCX along
// (to preserve progress) and reports failure.
func validateOne[N any](rec *Record[N], info *descriptor[N]) bool {
	cur := rec.info.Load()
	if cur != info {
		// Optional help (see the matching site in LLX): chaos may skip it.
		if cur != nil && cur.state.Load() == stateInProgress && !sched.ChaosDropHelp() {
			help(cur)
		}
		return false
	}
	return true
}

// help completes (or aborts) the SCX described by d. It may be called by the
// initiating process or by any process that encounters the descriptor. It
// returns true if the SCX committed.
//
// For pooled descriptors the freezing loop also maintains the reference
// counts: the helper whose CAS installs d into a record accounts one
// reference on d (taken before the CAS, undone if the CAS fails, so the
// count never under-shoots) and drops the reference held by the displaced
// descriptor, which was installed in that record until this very CAS.
func help[N any](d *descriptor[N]) bool {
	// Freeze every record in V by installing d in its info field.
	pooled := d.pool != nil
	for i := 0; i < d.nV; i++ {
		rec := d.recs[i]
		if sched.DropFreeze() && i == 0 {
			// Seeded protocol mutation (armed only under -tags sched by the
			// checker self-tests): skip the freezing CAS on the first record
			// of V, exactly the bug the freeze-everything-before-committing
			// step of the protocol exists to prevent.
			continue
		}
		sched.Point(sched.PointSCXFreeze)
		if pooled {
			d.refs.Add(1)
		}
		if rec.info.CompareAndSwap(d.infos[i], d) {
			// This helper won the install: release the displaced
			// descriptor's install reference (exactly once per record).
			if old := d.infos[i]; old != nil && old.pool != nil {
				old.release()
			}
		} else {
			if pooled {
				d.refs.Add(-1)
			}
			if rec.info.Load() != d {
				// Could not freeze rec because another SCX owns it. If all
				// records were already frozen by some helper, the SCX has
				// committed; otherwise it must abort.
				if d.allFrozen.Load() {
					return true
				}
				d.state.Store(stateAborted)
				return false
			}
		}
	}
	// All records in V are frozen for d.
	d.allFrozen.Store(true)
	sched.Point(sched.PointSCXMark)
	for i := 0; i < d.nMark; i++ {
		d.toMark[i].marked.Store(true)
	}
	if pooled && d.pool.OnCommit != nil {
		// Ordered before the update CAS: new is stamped by the hook before it
		// can ever be read out of a mutable field, so any later update whose
		// evidence (or search path) depends on this one necessarily stamps
		// after it. This is what makes the version ticks of the snapshot
		// layer monotone along structural dependencies, and what makes
		// "visible through a field" imply "already counted by the version
		// counter" (DESIGN.md, "Versioned snapshots").
		d.pool.OnCommit(d.fld, d.old, d.new)
	}
	sched.Point(sched.PointSCXUpdate)
	d.fld.CompareAndSwap(d.old, d.new)
	if pooled && d.pool.OnCommit != nil && d.pool.OnInstalled != nil {
		// Paired with the OnCommit call above: after this helper's CAS
		// attempt the new subtree is reachable (its own CAS landed, or an
		// earlier helper's did — the frozen records admit no other writer).
		d.pool.OnInstalled()
	}
	sched.Point(sched.PointSCXCommit)
	d.state.Store(stateCommitted)
	return true
}
