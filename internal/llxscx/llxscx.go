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
// synchronization state and mutable fields. (LLX needs nothing else of the
// node, so a node type on a hot path hands its record and fields to
// Record.LLX itself.) Instead of the per-process
// tables used in the original pseudocode, a successful LLX returns a Linked
// value carrying the evidence (observed descriptor tag and snapshot); the
// caller passes these Linked values to SCX or VLX, which expresses exactly
// the same "linked LLX" relationship explicitly.
//
// Descriptors: the paper creates a fresh SCX-record per SCX and leaves it to
// the garbage collector. Here a process-wide table holds one descriptor per
// epoch slot (internal/epoch), owned by whoever holds that slot pinned, and a
// record's info field is not a pointer but a tag: the slot index and the
// slot's sequence number at the time of the SCX. A descriptor is two words on
// one cache line: the status word (state, allFrozen bit, sequence number),
// which is all LLX reads, and a pointer to the SCX's argument block (V, the
// expected tags, R, fld, old, new and the commit hook), which only helpers
// read. The owner fills a block with plain stores and publishes it with one
// atomic store beside the status word. Following Arbel-Raviv and Brown
// ("Reuse, don't recycle", DISC 2017), four rules replace the collector:
//
//   - Tags never recur. Every SCX of a slot has the next sequence number,
//     so every SCX has its own tag and the freezing CAS's expected value can
//     never be matched by a later SCX.
//   - Immutable while reachable. Nobody writes a block a helper can still
//     read. A helper pins an epoch slot of its own before it loads the
//     block pointer, and a slot hands the blocks it has replaced to an
//     epoch.Recycler, which returns one for rewriting only once every
//     operation pinned when it was replaced has unpinned; the epoch layer's
//     atomics order the helper's plain reads before the rewrite, as they do
//     for recycled nodes. A helper runs an SCX from the block it loads only
//     if the block's sequence number is its tag's; otherwise the slot has
//     moved on and the SCX is over. The status word changes only by CAS
//     from the exact word the helper observed, so a helper of a finished
//     SCX cannot touch the state of the slot's next one.
//   - Terminal before reuse. A slot starts its next SCX only once the
//     previous one is committed or aborted; an owner that finds it in
//     progress (its initiator panicked mid-protocol) helps it finish first.
//   - Stale reads as committed. LLX and VLX treat a tag whose sequence
//     number no longer matches as naming a committed SCX. That is exact:
//     a finished SCX matters to LLX only through the marked bit, and only
//     a committed SCX leaves a marked record behind.
//
// Since helping pins, LLX and VLX need no guard: a caller that holds none
// helps as safely as an operation that runs pinned. The full safety
// argument is in DESIGN.md ("Epoch reclamation and the ABA
// re-derivation").
package llxscx

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/sched"
)

// MaxMutable is the maximum number of mutable fields a Data-record may
// expose to LLX: two, the child pointers of a binary node, which is what
// every Data-record in this repository has. Raising it for a k-ary node
// costs eight bytes per extra field in every Linked (six of which sit on each
// update's frame), and llx, which takes the fields as two arguments and
// returns their values in registers, has to grow a loop over them.
const MaxMutable = 2

// MaxV is the maximum length of the V sequence (and therefore of the R
// subsequence) accepted by SCX and VLXFixed, and the capacity of the
// evidence arrays of every argument block. It is sized for the largest update
// any tree in this repository performs: the chromatic tree's W3/W4
// rebalancing steps (and their mirrors) link six LLXs and finalize five
// records.
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

// A tag names one SCX: the descriptor slot in its low slotBits and the
// slot's sequence number above them. The zero tag (a record no SCX has ever
// frozen) names sequence 0 of slot 0, an SCX that never ran: it reads as
// committed while slot 0 is unused, and as stale, which also reads as
// committed, once slot 0 has run its first SCX.
const (
	slotBits = 7
	numDesc  = 1 << slotBits
	slotMask = numDesc - 1

	// Fail to compile unless the tag's slot field names exactly the epoch
	// layer's slots, so the table below has a descriptor for each and none
	// to spare.
	_ = uint(numDesc - epoch.NumSlots)
	_ = uint(epoch.NumSlots - numDesc)
)

// A descriptor's status word holds what changes during an SCX, with the
// sequence number it belongs to: its state and the allFrozen bit. One load
// tells an LLX what the SCX a tag names has done, and a CAS on the word
// cannot succeed on a later SCX of the slot.
const (
	stateCommitted  = 0 // zero, so the never-used descriptor reads as committed
	stateInProgress = 1
	stateAborted    = 2
	stateMask       = 3

	frozenBit = 1 << 2
	seqShift  = 3
)

// record is the synchronization state of one Data-record.
type record struct {
	// info is the tag of the last SCX that froze the record. It is never
	// reset, not even when the record's node is recycled: tags never recur,
	// so a freezing CAS left over from before the node was recycled cannot
	// match anything the record will hold again.
	info   atomic.Uint64
	marked uint32 // 1 once finalized; a word for sync/atomic, see vcell.Cell.refs
	// aux fills the four bytes that would otherwise pad the record to a
	// multiple of eight: immutable data of the embedding node, which the
	// primitives never read (see Record.Aux).
	aux uint32
}

// Record is the per-Data-record synchronization state used by LLX and SCX.
// Embed one Record in every node type. The zero value is ready to use.
//
// A Record is 16 bytes: the tag word, the 4-byte finalized flag and 32 bits
// the embedding node may use for its own immutable data (Aux), so a tree
// node can keep its flags and balance information on the line a search
// already touches instead of in a field of its own.
type Record[N any] struct {
	r record
}

// Aux returns the 32 bits of node data stored with SetAux. They are
// immutable in the Data-record sense: set before the node is published and
// not again until its memory is reused, so a plain read is enough.
func (r *Record[N]) Aux() uint32 { return r.r.aux }

// SetAux stores the node's 32 bits of immutable data. It must only be called
// while no other goroutine can reach the node: when it is built, or when it
// is reused after its grace period.
func (r *Record[N]) SetAux(a uint32) { r.r.aux = a }

// Marked reports whether the record has been finalized by a committed SCX.
// A finalized record has been removed from the data structure and its
// mutable fields will never change again.
func (r *Record[N]) Marked() bool { return atomic.LoadUint32(&r.r.marked) != 0 }

// ReleaseRecord resets a freed Data-record for reuse. Trees must call it
// exactly once, when a node's grace period has completed and the node is
// about to be kept for reuse: at that point no operation can reach the record,
// and every helper that could still mark it has finished. The store is
// plain: the grace period orders it after every access by another
// goroutine, and the SCX that publishes the node again orders it before the
// next.
func ReleaseRecord[N any](rec *Record[N]) {
	rec.r.marked = 0
}

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
	ev   evidence
	vals [MaxMutable]*N
	n    int
}

// Node returns the Data-record this evidence refers to.
func (l Linked[N]) Node() *N { return l.node }

// NumChildren returns the number of mutable fields captured in the snapshot.
func (l Linked[N]) NumChildren() int { return l.n }

// Child returns the value of the i'th mutable field at the time of the LLX.
func (l Linked[N]) Child(i int) *N { return l.vals[i] }

// evidence is the part of a Linked that SCX and VLX read: the record and the
// descriptor tag its LLX observed.
type evidence struct {
	rec  *record
	info uint64 // the tag in rec's info field at the LLX
}

// stateOf returns the state of the SCX that tag names; an SCX whose slot has
// moved on is over, and reads as committed (see the package comment).
func stateOf(tag uint64) uint64 {
	st := table[tag&slotMask].status.Load()
	if st>>seqShift != tag>>slotBits {
		return stateCommitted
	}
	return st & stateMask
}

// llx is LLX on a record whose mutable fields are f0 and f1, with the node
// type erased and everything passed and returned in registers. It is the
// only implementation of LLX: every entry point below is a cast around it.
// On Snapshot c0 and c1 are the fields' values and ev is what links a later
// SCX or VLX to this LLX; otherwise they are zero.
func llx(rec *record, f0, f1 *unsafe.Pointer) (c0, c1 unsafe.Pointer, ev evidence, st Status) {
	sched.Point(sched.PointLLX)
	rinfo := rec.info.Load()
	state := stateOf(rinfo)
	// The marked flag must be read after the descriptor state: help() marks
	// the finalized records before it publishes the Committed state, so a
	// record finalized by rinfo's SCX is guaranteed to be seen as marked
	// here. Reading it earlier admits a race in which LLX hands out a
	// snapshot of a record that has already been removed from the tree,
	// allowing a later SCX to resurrect it. (SkipMarkedRead is the seeded
	// mutation that proves the read is load-bearing.)
	marked := atomic.LoadUint32(&rec.marked) != 0 && !sched.Mutated(sched.SkipMarkedRead)
	if state == stateAborted || (state == stateCommitted && !marked) {
		// The record is not being changed by an in-progress SCX: read the
		// mutable fields and confirm nothing froze the record meanwhile.
		c0, c1 = atomic.LoadPointer(f0), atomic.LoadPointer(f1)
		sched.Point(sched.PointLLXRecheck)
		if rec.info.Load() == rinfo {
			return c0, c1, evidence{rec, rinfo}, Snapshot
		}
	}
	return nil, nil, evidence{}, blocked(rec, rinfo, marked)
}

// blocked is the rest of an LLX that found its record frozen, or freshly
// unfrozen, by an SCX: help that SCX complete, then report Finalized or Fail
// as appropriate. rinfo and marked are what the LLX read. A marked record
// was frozen by an SCX that went on to set allFrozen, so its removal is
// certain whatever rinfo's own SCX did.
func blocked(rec *record, rinfo uint64, marked bool) Status {
	if marked {
		if state := stateOf(rinfo); state == stateCommitted || (state == stateInProgress && help(rinfo)) {
			return Finalized
		}
	}
	// Helping the blocker before reporting Fail is an optimization, not an
	// obligation: the caller's retry re-encounters any still-frozen record
	// and helps then. That makes it a legal target for chaos's dropped-help
	// injection (a probabilistic skip can delay completion but never
	// prevent it, because help-on-encounter sites are still reached on
	// every retry).
	if cur := rec.info.Load(); stateOf(cur) == stateInProgress && !sched.ChaosDropHelp() {
		help(cur)
	}
	return Fail
}

// LLX is the LLX of a Data-record that knows its own layout: node is the
// Data-record r is embedded in and f0, f1 its two mutable fields. It reaches
// llx with no dictionary call and packages the snapshot as the Linked an SCX
// takes.
func (r *Record[N]) LLX(node *N, f0, f1 *atomic.Pointer[N]) (lk Linked[N], st Status) {
	// An atomic.Pointer[N] is one pointer word whatever N is (see scx).
	c0, c1, ev, st := llx(&r.r, (*unsafe.Pointer)(unsafe.Pointer(f0)), (*unsafe.Pointer)(unsafe.Pointer(f1)))
	if st == Snapshot {
		lk = Linked[N]{node: node, ev: ev, vals: [MaxMutable]*N{(*N)(c0), (*N)(c1)}, n: MaxMutable}
	}
	return lk, st
}

// LLX attempts to take a snapshot of the mutable fields of r. It returns the
// snapshot evidence and Snapshot on success, a zero Linked and Fail if it was
// concurrent with an SCX involving r, or a zero Linked and Finalized if r has
// been finalized. It reaches the record and the fields through the
// DataRecord methods; a node type that knows its own layout calls its
// record's LLX directly and spares the indirection.
func LLX[P DataRecord[N], N any](r P) (lk Linked[N], st Status) {
	n := r.NumMutable()
	if n > MaxMutable {
		panic("llxscx: Data-record has more than MaxMutable mutable fields")
	}
	f0, f1 := &noField, &noField
	if n > 0 {
		f0 = (*unsafe.Pointer)(unsafe.Pointer(r.Mutable(0)))
	}
	if n > 1 {
		f1 = (*unsafe.Pointer)(unsafe.Pointer(r.Mutable(1)))
	}
	// Straight to llx, and the Linked built in place: going through
	// Record.LLX copies it out of one more frame, which costs as much as
	// the LLX.
	c0, c1, ev, st := llx(&r.LLXRecord().r, f0, f1)
	if st == Snapshot {
		lk = Linked[N]{node: (*N)(r), ev: ev, vals: [MaxMutable]*N{(*N)(c0), (*N)(c1)}, n: n}
	}
	return lk, st
}

// noField stands in for a mutable field a record does not have. Nothing
// writes it, so it reads as nil.
var noField unsafe.Pointer

// SCXFixed attempts to atomically store new into *fld and finalize the
// first nf records of finalize, provided that none of the first nv records
// of v has changed since the linked LLX that produced its evidence. Both
// sequences are staged in caller-owned fixed-capacity arrays (typically on
// the caller's stack). v must be ordered as required by the tree update
// template (Constraint 2 / postcondition PC8); finalize must identify a
// subset of the records in v; the record containing fld must be in v; and
// old must be the value of *fld observed by that record's linked LLX.
//
// SCXFixed returns true if it modified the data structure and false if it
// failed because some record in v changed since its linked LLX.
//
// new must be freshly obtained - never a value that fld (or any mutable
// field) has held while any current operation could have observed it.
// Helpers of a committed SCX retry the update CAS unconditionally, so the
// protocol's ABA-freedom rests on stored values never recurring; reusing an
// existing node is only sound as a child of a freshly obtained subtree
// root, never as new itself. A node reused after an epoch grace period
// counts as freshly obtained: the grace period guarantees no helper or
// snapshot holder can still name its previous incarnation (DESIGN.md
// re-derives this).
//
// nv must be in [1, MaxV] and nf in [0, nv]; out-of-range lengths panic,
// since they indicate an update whose V sequence does not fit an argument
// block (raise MaxV if a new data structure legitimately needs a larger
// update).
//
// SCXFixed is the entry point for callers that hold no epoch guard: it pins
// an epoch slot for its own duration. Operations that run pinned should call
// SCXP, which uses the descriptor of the guard they already hold.
func SCXFixed[P DataRecord[N], N any](v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	g := epoch.Pin()
	// Unpinned by defer so an SCX that panics (chaos injection) does not
	// leak the slot; its next owner finishes what it left in progress.
	defer epoch.Unpin(g)
	return scx(g, nil, v, nv, finalize, nf, fld, old, new)
}

// scx writes the arguments of one SCX into a block and runs the SCX on the
// descriptor of g's slot; g must be pinned.
func scx[P DataRecord[N], N any](g *epoch.Guard, h *hooks, v *[MaxV]Linked[N], nv int, finalize *[MaxV]P, nf int, fld *atomic.Pointer[N], old, new *N) bool {
	if nv < 1 || nv > MaxV || nf < 0 || nf > nv {
		panic("llxscx: SCX sequence lengths out of range")
	}
	var mask uint8
	for i := 0; i < nf; i++ {
		rec := &finalize[i].LLXRecord().r
		j := 0
		for j < nv && v[j].ev.rec != rec {
			j++
		}
		if j == nv {
			panic("llxscx: finalized record is not in V")
		}
		mask |= 1 << j
	}
	slot := g.Slot()
	d := &table[slot]
	seq := d.nextSeq(slot)
	b := d.spare.Get()
	if b == nil {
		b = &block{}
	}
	b.seq, b.nV, b.mask = seq, uint8(nv), mask
	for i := 0; i < nv; i++ {
		b.recs[i] = v[i].ev.rec
		b.exps[i] = v[i].ev.info
	}
	// An atomic.Pointer[N] is one pointer word whatever N is; erasing N here
	// is what lets one non-generic help() serve every structure, including
	// an owner finishing an SCX some other structure's operation abandoned.
	b.fld = (*unsafe.Pointer)(unsafe.Pointer(fld))
	b.old, b.new, b.hooks = unsafe.Pointer(old), unsafe.Pointer(new), h
	return d.start(slot, b)
}

// VLXFixed returns true if none of the first n records of v has changed
// since the linked LLXs that produced their evidence. v is a caller-owned
// fixed-capacity array; n must be in [0, MaxV].
func VLXFixed[N any](v *[MaxV]Linked[N], n int) bool {
	if n < 0 || n > MaxV {
		panic("llxscx: VLXFixed sequence length out of range")
	}
	for i := 0; i < n; i++ {
		if !validateOne(v[i].ev.rec, v[i].ev.info) {
			return false
		}
	}
	return true
}

// validateOne checks a single linked LLX: the record's tag must be the one
// the LLX observed. On mismatch it helps any in-progress SCX along (to
// preserve progress) and reports failure.
func validateOne(rec *record, info uint64) bool {
	cur := rec.info.Load()
	if cur != info {
		// Optional help (see the matching site in LLX): chaos may skip it.
		if stateOf(cur) == stateInProgress && !sched.ChaosDropHelp() {
			help(cur)
		}
		return false
	}
	return true
}

// desc is one slot's SCX descriptor. Its first line is what other processes
// touch: the status word, which LLX reads and helpers change by CAS, and the
// pointer to the argument block of the slot's current SCX, which helpers
// load. The second line is the owner's alone (whoever holds the epoch slot
// pinned). Whole lines per descriptor, so neither shares a line with a
// neighbouring slot.
type desc struct {
	status atomic.Uint64
	block  atomic.Pointer[block]
	_      [cacheLine - 16]byte

	// spare holds the blocks the slot has replaced until no helper can
	// still read them.
	spare epoch.Recycler[block]
	_     [cacheLine - unsafe.Sizeof(epoch.Recycler[block]{})]byte
}

const cacheLine = epoch.CacheLine

// table holds the descriptors, indexed by epoch slot. It is allocated rather
// than static so that it starts on a cache-line boundary, and a slice, not a
// pointer to the array, so that indexing it costs a bounds check instead of a
// nil check that reads descriptor 0's status line on every LLX.
var table = epoch.NewAligned[[numDesc]desc]()[:]

func init() { epoch.OnDiscard(scrub) }

// block holds the arguments of one SCX. The slot's owner writes it with
// plain stores before it publishes it in the descriptor, and nobody writes it
// again while a helper can load it (see help and start), so helpers read it
// with plain loads and need no private copy.
type block struct {
	// seq is the sequence number of the SCX the block was written for.
	seq uint64
	// recs[i] is the i'th element of V and exps[i] the tag its linked LLX
	// observed (the expected value of the freezing CAS); bit i of mask is
	// set if recs[i] is finalized (R is a subset of V).
	nV, mask uint8
	recs     [MaxV]*record
	exps     [MaxV]uint64
	// fld is the single mutable field changed from old to new.
	fld      *unsafe.Pointer
	old, new unsafe.Pointer
	hooks    *hooks
}

// nextSeq makes the slot's last SCX terminal and returns the sequence number
// of its next one. The caller must own the slot. Finding the last SCX still
// in progress means its initiator left it (a panic between freeze and
// commit); helping it to completion first is what keeps the status word's
// history one SCX at a time.
func (d *desc) nextSeq(slot int) uint64 {
	st := d.status.Load()
	if st&stateMask == stateInProgress {
		resume(st>>seqShift<<slotBits|uint64(slot), false)
		st = d.status.Load()
	}
	return st>>seqShift + 1
}

// start publishes b, the arguments of the slot's next SCX, and runs the SCX.
// The caller owns the slot. The two stores are the SCX's only sequentially
// consistent ones before its first freezing CAS, which is what publishes its
// tag; a helper of an earlier SCX of the slot finds a later sequence number
// in the status word or in the block, and knows the SCX it came for is over.
// The block b replaces goes to the slot's Recycler, which hands it back only
// once every helper that could have loaded it has unpinned.
func (d *desc) start(slot int, b *block) bool {
	if prev := d.block.Swap(b); prev != nil {
		d.spare.Put(prev)
	}
	st := b.seq<<seqShift | stateInProgress
	d.status.Store(st)
	return run(d, b.seq<<slotBits|uint64(slot), st, b, false)
}

// help completes (or aborts) the SCX that tag names. It may be called by
// any process that encounters the tag, pinned or not. It returns true if the
// SCX committed or is over and forgotten (see the package comment), false if
// it aborted.
func help(tag uint64) bool { return resume(tag, true) }

// resume is help. pin is false for a caller under whom the slot cannot
// rewrite the block: the slot's owner (nextSeq), or run going back to the
// status word for a caller that holds the owner's pin or a helper's.
func resume(tag uint64, pin bool) bool {
	d := &table[tag&slotMask]
	st := d.status.Load()
	if st>>seqShift != tag>>slotBits {
		return true
	}
	if st&stateMask != stateInProgress {
		return st&stateMask == stateCommitted
	}
	sched.Point(sched.PointSCXRead)
	// Pinned before the block pointer is loaded, so the slot cannot rewrite
	// the block while this helper reads it, whether or not its caller runs
	// pinned (an LLX or VLX needs no guard). Unpinned by defer, like
	// SCXFixed's slot, so a chaos panic does not leak it.
	if pin {
		g := epoch.Pin()
		defer epoch.Unpin(g)
	}
	// The slot's block is this SCX's only if its sequence number says so;
	// otherwise the slot has started another SCX since the status word was
	// read, and this one is over. (SkipValidate is the seeded mutation that
	// proves the check is load-bearing.)
	b := d.block.Load()
	if b.seq != tag>>slotBits && !sched.Mutated(sched.SkipValidate) {
		return true
	}
	return run(d, tag, st, b, true)
}

// run executes the SCX protocol for tag from the point its status word st
// records, on the arguments in b; helper is set when the process running it
// is not the one that started the SCX. Every state change is a CAS from st,
// so a process running behind the others changes nothing; when such a CAS
// fails the SCX has moved on and help re-dispatches on what it is now.
func run(d *desc, tag, st uint64, b *block, helper bool) bool {
	if st&frozenBit == 0 {
		// Freeze every record in V by installing the tag in its info field.
		for i := 0; i < int(b.nV); i++ {
			if i == 0 && sched.Mutated(sched.DropFreeze) {
				// Seeded protocol mutation (armed only by the checker
				// self-tests): skip the freezing CAS on the first record of V,
				// exactly the bug the freeze-everything-before-committing step
				// of the protocol exists to prevent.
				continue
			}
			sched.Point(sched.PointSCXFreeze)
			rec := b.recs[i]
			if !rec.info.CompareAndSwap(b.exps[i], tag) && rec.info.Load() != tag {
				// Another SCX owns rec. Unless some helper already froze all
				// of V (and the record has since moved on), this SCX aborts.
				if d.status.CompareAndSwap(st, st&^stateMask|stateAborted) {
					return false
				}
				return resume(tag, false)
			}
		}
		if !d.status.CompareAndSwap(st, st|frozenBit) {
			return resume(tag, false)
		}
		st |= frozenBit
	}
	// All records in V are frozen for tag.
	sched.Point(sched.PointSCXMark)
	for m := b.mask; m != 0; m &= m - 1 {
		atomic.StoreUint32(&b.recs[bits.TrailingZeros8(m)].marked, 1)
	}
	// An SCX with a commit hook stamps new with the structure's version clock
	// before the update CAS can make it readable, inside a publish window on
	// the slot the tag names: the initiator's own, so the window moves no
	// cache line unless a helper is running the SCX, and a helper is already
	// contending on that slot's descriptor. The window opens before the hook
	// reads the clock and closes after this process's CAS attempt, when new
	// is reachable (its own CAS landed, or an earlier helper's did: the
	// frozen records admit no other writer). A snapshot capture advances the
	// clock and then waits the open windows out (epoch.DrainWindows), so a
	// node stamped with a tick the capture covers is installed before the
	// capture's first read (DESIGN.md, "Versioned snapshots"). Every process
	// that reaches this point runs the hook, which is idempotent. That new is
	// stamped before it can be read out of a mutable field is also what makes
	// ticks monotone along structural dependencies: a later update whose
	// evidence or search path depends on this one stamps after it.
	win, late := window(b.hooks, helper, tag), false
	if win != nil {
		// StampBeforeWindow is the seeded mutation that opens the window only
		// after the stamp, which is the clock read left outside it.
		if late = sched.Mutated(sched.StampBeforeWindow); !late {
			win.Open()
		}
		b.hooks.commit(b.fld, b.old, b.new)
	}
	sched.Point(sched.PointSCXUpdate)
	if late {
		win.Open()
	}
	atomic.CompareAndSwapPointer(b.fld, b.old, b.new)
	if win != nil {
		win.Close()
	}
	sched.Point(sched.PointSCXCommit)
	d.status.CompareAndSwap(st, st&^stateMask|stateCommitted)
	return true
}

// window returns the publish window an SCX named tag with commit hooks h
// runs its hook and update CAS in, or nil if it has none. SkipHelperWindow is
// the seeded mutation in which a helper opens its window where no capture
// looks.
func window(h *hooks, helper bool, tag uint64) *epoch.Window {
	if h == nil {
		return nil
	}
	if helper && sched.Mutated(sched.SkipHelperWindow) {
		return &unscanned
	}
	return epoch.SlotWindow(int(tag & slotMask))
}

// unscanned is the window of the SkipHelperWindow mutation.
var unscanned epoch.Window

// scrub drops what the descriptors still reference of finished SCXs, as
// part of epoch.DiscardAll: a slot's current block and the blocks in its
// Recycler keep their arguments until the slot rewrites them, and those
// reach the structures they belonged to. owned marks the slots DiscardAll
// holds pinned. Each of their descriptors is advanced to an empty committed
// SCX, exactly as its owner would start a new one, before its blocks are
// dropped, so a helper that still holds an old tag finds that SCX over.
func scrub(owned *[epoch.NumSlots]bool) {
	for slot := range owned {
		d := &table[slot]
		if !owned[slot] || d.block.Load() == nil && d.spare.Len() == 0 {
			continue
		}
		d.status.Store(d.nextSeq(slot)<<seqShift | stateCommitted)
		d.block.Store(nil)
		d.spare = epoch.Recycler[block]{}
	}
}
