package llxscx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/epoch"
	"repro/internal/sched"
)

// tnode is a minimal binary Data-record used to exercise the primitives
// directly, independent of any particular tree algorithm.
type tnode struct {
	rec   Record[tnode]
	key   int64
	left  atomic.Pointer[tnode]
	right atomic.Pointer[tnode]
}

func (n *tnode) LLXRecord() *Record[tnode] { return &n.rec }
func (n *tnode) NumMutable() int           { return 2 }
func (n *tnode) Mutable(i int) *atomic.Pointer[tnode] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

// wnode reports one mutable field more than LLX reads.
type wnode struct {
	rec Record[wnode]
	f   [MaxMutable + 1]atomic.Pointer[wnode]
}

func (n *wnode) LLXRecord() *Record[wnode]            { return &n.rec }
func (n *wnode) NumMutable() int                      { return len(n.f) }
func (n *wnode) Mutable(i int) *atomic.Pointer[wnode] { return &n.f[i] }

func newTNode(key int64, left, right *tnode) *tnode {
	n := &tnode{key: key}
	n.left.Store(left)
	n.right.Store(right)
	return n
}

// fixedV stages linked LLX evidence the way hot paths do: in a stack array.
func fixedV(lks ...Linked[tnode]) ([MaxV]Linked[tnode], int) {
	var v [MaxV]Linked[tnode]
	return v, copy(v[:], lks)
}

func fixedR(rs ...*tnode) ([MaxV]*tnode, int) {
	var r [MaxV]*tnode
	return r, copy(r[:], rs)
}

// testPool is the hook-less Pool the pinned entry point runs with.
var testPool = NewPool[tnode]()

// scxFixed runs one SCX through the guard-less entry point, which pins a slot
// of its own; scxPinned through SCXP under g (the descriptor of g's slot).
func scxFixed(lks []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
	v, nv := fixedV(lks...)
	r, nr := fixedR(fin...)
	return SCXFixed(&v, nv, &r, nr, fld, old, new)
}

func scxPinned(g *epoch.Guard, lks []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
	v, nv := fixedV(lks...)
	r, nr := fixedR(fin...)
	return SCXP(g, testPool, &v, nv, &r, nr, fld, old, new)
}

// scxOnce pins for the duration of one SCXP.
func scxOnce(lks []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	return scxPinned(g, lks, fin, fld, old, new)
}

// pinSlot pins the epoch slot with the given index. No slot may be pinned
// when it is called. Pin probes upwards from a hint that moves with the
// goroutine's stack, so holding on to whatever else it hands out walks it
// over every slot.
func pinSlot(t *testing.T, slot int) *epoch.Guard {
	t.Helper()
	if n := epoch.Stats().PinnedSlots; n != 0 {
		t.Fatalf("%d slots are pinned at quiescence", n)
	}
	var others []*epoch.Guard
	defer func() {
		for _, g := range others {
			epoch.Unpin(g)
		}
	}()
	for {
		g := epoch.Pin()
		if g.Slot() == slot {
			return g
		}
		others = append(others, g)
	}
}

func TestLLXSnapshotOfQuiescentRecord(t *testing.T) {
	l, r := newTNode(1, nil, nil), newTNode(3, nil, nil)
	root := newTNode(2, l, r)
	lk, st := LLX(root)
	if st != Snapshot {
		t.Fatalf("LLX status = %v, want Snapshot", st)
	}
	if lk.Node() != root {
		t.Fatalf("Linked.Node = %p, want %p", lk.Node(), root)
	}
	if lk.NumChildren() != 2 {
		t.Fatalf("NumChildren = %d, want 2", lk.NumChildren())
	}
	if lk.Child(0) != l || lk.Child(1) != r {
		t.Fatalf("snapshot children = %p,%p want %p,%p", lk.Child(0), lk.Child(1), l, r)
	}
	if !lk.Valid() {
		t.Fatal("Linked.Valid() = false, want true")
	}
}

func TestZeroLinkedIsInvalid(t *testing.T) {
	var lk Linked[tnode]
	if lk.Valid() {
		t.Fatal("zero Linked should not be valid")
	}
}

// swingsChildPointerAndFinalizes is the uncontended update, through either
// entry point.
func swingsChildPointerAndFinalizes(t *testing.T, scx func([]Linked[tnode], []*tnode, *atomic.Pointer[tnode], *tnode, *tnode) bool) {
	oldLeaf := newTNode(1, nil, nil)
	sibling := newTNode(3, nil, nil)
	root := newTNode(2, oldLeaf, sibling)

	lkRoot, st := LLX(root)
	if st != Snapshot {
		t.Fatalf("LLX(root) = %v", st)
	}
	lkLeaf, st := LLX(oldLeaf)
	if st != Snapshot {
		t.Fatalf("LLX(oldLeaf) = %v", st)
	}

	repl := newTNode(10, nil, nil)
	if !scx([]Linked[tnode]{lkRoot, lkLeaf}, []*tnode{oldLeaf}, &root.left, oldLeaf, repl) {
		t.Fatal("SCX failed on uncontended update")
	}
	if got := root.left.Load(); got != repl {
		t.Fatalf("root.left = %p, want %p", got, repl)
	}
	if !oldLeaf.rec.Marked() {
		t.Fatal("finalized record not marked")
	}
	if _, st := LLX(oldLeaf); st != Finalized {
		t.Fatalf("LLX on finalized record = %v, want Finalized", st)
	}
	// The replacement and untouched sibling remain usable.
	if _, st := LLX(repl); st != Snapshot {
		t.Fatalf("LLX(repl) = %v, want Snapshot", st)
	}
	if _, st := LLX(sibling); st != Snapshot {
		t.Fatalf("LLX(sibling) = %v, want Snapshot", st)
	}
}

func TestSCXSwingsChildPointerAndFinalizes(t *testing.T) {
	swingsChildPointerAndFinalizes(t, scxOnce)
}

func TestSCXFixedSwingsChildPointerAndFinalizes(t *testing.T) {
	swingsChildPointerAndFinalizes(t, scxFixed)
}

// failsIfRecordChangedSinceLinkedLLX runs a winning update through one entry
// point and the stale loser through the other.
func failsIfRecordChangedSinceLinkedLLX(t *testing.T, win, lose func([]Linked[tnode], []*tnode, *atomic.Pointer[tnode], *tnode, *tnode) bool) {
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)

	// A competing update changes root.left first.
	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	winner := newTNode(7, nil, nil)
	if !win([]Linked[tnode]{lkRoot2, lkA2}, []*tnode{a}, &root.left, a, winner) {
		t.Fatal("first SCX should succeed")
	}

	loser := newTNode(8, nil, nil)
	if lose([]Linked[tnode]{lkRoot, lkA}, []*tnode{a}, &root.left, a, loser) {
		t.Fatal("second SCX should fail: root changed since its linked LLX")
	}
	if got := root.left.Load(); got != winner {
		t.Fatalf("root.left = %p, want winner %p", got, winner)
	}
	if !a.rec.Marked() {
		t.Fatal("replaced child not finalized")
	}
}

func TestSCXFailsIfRecordChangedSinceLinkedLLX(t *testing.T) {
	failsIfRecordChangedSinceLinkedLLX(t, scxOnce, scxOnce)
}

func TestSCXFixedFailsIfRecordChangedSinceLinkedLLX(t *testing.T) {
	failsIfRecordChangedSinceLinkedLLX(t, scxFixed, scxFixed)
}

// TestSCXFixedPinsASlotForItsOwnDuration: the guard-less entry point runs on
// an epoch slot's descriptor like every other SCX, and gives the slot back.
// The slot's next owner continues its sequence.
func TestSCXFixedPinsASlotForItsOwnDuration(t *testing.T) {
	root := newTNode(2, newTNode(1, nil, nil), nil)
	lk, _ := LLX(root)
	if !scxFixed([]Linked[tnode]{lk}, nil, &root.left, lk.Child(0), newTNode(9, nil, nil)) {
		t.Fatal("SCXFixed failed")
	}
	tag := root.rec.r.info.Load()
	slot := int(tag & slotMask)
	if slot >= epoch.NumSlots {
		t.Fatalf("tag %#x names descriptor %d, which no epoch slot owns", tag, slot)
	}
	g := pinSlot(t, slot) // fails if SCXFixed kept the slot pinned
	defer epoch.Unpin(g)
	lk, _ = LLX(root)
	if !scxPinned(g, []Linked[tnode]{lk}, nil, &root.left, lk.Child(0), newTNode(10, nil, nil)) {
		t.Fatal("SCXP on the slot SCXFixed used failed")
	}
	if got, want := root.rec.r.info.Load(), tag+1<<slotBits; got != want {
		t.Fatalf("the slot's next SCX has tag %#x, want %#x", got, want)
	}
}

func TestVLXFixedDetectsChange(t *testing.T) {
	a := newTNode(1, nil, nil)
	b := newTNode(3, nil, nil)
	root := newTNode(2, a, b)

	lkRoot, _ := LLX(root)
	lkA, _ := LLX(a)
	v, nv := fixedV(lkRoot, lkA)
	if !VLXFixed(&v, nv) {
		t.Fatal("VLXFixed on unchanged records should succeed")
	}

	lkRoot2, _ := LLX(root)
	lkA2, _ := LLX(a)
	if !scxFixed([]Linked[tnode]{lkRoot2, lkA2}, []*tnode{a}, &root.left, a, newTNode(9, nil, nil)) {
		t.Fatal("SCXFixed should succeed")
	}
	if VLXFixed(&v, nv) {
		t.Fatal("VLXFixed should fail after root was modified")
	}
	if !VLXFixed(&v, 0) {
		t.Fatal("VLXFixed over zero records should succeed")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{Snapshot: "Snapshot", Fail: "Fail", Finalized: "Finalized", Status(42): "Unknown"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestSCXFixedPanicsOnBadLengths(t *testing.T) {
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	v, _ := fixedV(lkRoot, lkChild)
	r, _ := fixedR(child)

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("nv=0", func() { SCXFixed(&v, 0, &r, 0, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nv>MaxV", func() { SCXFixed(&v, MaxV+1, &r, 0, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nf>nv", func() { SCXFixed(&v, 2, &r, 3, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("nf<0", func() { SCXFixed(&v, 2, &r, -1, &root.left, child, newTNode(9, nil, nil)) })
	expectPanic("vlx n>MaxV", func() { VLXFixed(&v, MaxV+1) })
	expectPanic("llx NumMutable>MaxMutable", func() { LLX(&wnode{}) })
	// R must be a subset of V: the finalize mask is indexed by V.
	stranger, _ := fixedR(newTNode(5, nil, nil))
	expectPanic("R not in V", func() { SCXFixed(&v, 2, &stranger, 1, &root.left, child, newTNode(9, nil, nil)) })
	if _, st := LLX(root); st != Snapshot {
		t.Fatalf("a rejected SCX left root frozen: LLX = %v", st)
	}
}

// TestLLXFinalizedAfterRemoval checks that LLX never returns a stale
// snapshot of a record that a committed SCX has already replaced: after the
// SCX commits, LLX on the removed record must return Finalized - also once
// the descriptor has moved on to later SCXs and the record's tag is stale.
func TestLLXFinalizedAfterRemoval(t *testing.T) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	if !scxPinned(g, []Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, newTNode(5, nil, nil)) {
		t.Fatal("SCX failed")
	}
	for i := 0; i < 10; i++ {
		if _, st := LLX(child); st != Finalized {
			t.Fatalf("LLX on removed record = %v, want Finalized", st)
		}
		// Reuse the descriptor for an unrelated update.
		other := newTNode(100, newTNode(101, nil, nil), nil)
		lkO, _ := LLX(other)
		if !scxPinned(g, []Linked[tnode]{lkO}, nil, &other.left, lkO.Child(0), newTNode(102, nil, nil)) {
			t.Fatal("unrelated SCX failed")
		}
	}
}

// TestStaleTagReadsAsCommitted pins the reuse rules a reader depends on: a
// record keeps the tag of its last SCX after the slot has moved on, that tag
// reads as committed, LLX still snapshots the record, evidence taken under
// the stale tag still validates, and helping the stale tag touches nothing.
func TestStaleTagReadsAsCommitted(t *testing.T) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	update := func(root *tnode) {
		lk, _ := LLX(root)
		if !scxPinned(g, []Linked[tnode]{lk}, nil, &root.left, lk.Child(0), newTNode(9, nil, nil)) {
			t.Fatal("SCX failed")
		}
	}
	root := newTNode(2, newTNode(1, nil, nil), nil)
	update(root)
	tag := root.rec.r.info.Load()
	if tag&slotMask != uint64(g.Slot()) {
		t.Fatalf("tag %#x does not name the guard's slot %d", tag, g.Slot())
	}
	lk, st := LLX(root)
	if st != Snapshot {
		t.Fatalf("LLX = %v", st)
	}

	update(newTNode(20, newTNode(10, nil, nil), nil)) // same slot, next sequence number
	d := &table[tag&slotMask]
	if seq := d.status.Load() >> seqShift; seq != tag>>slotBits+1 {
		t.Fatalf("slot sequence = %d, want %d", seq, tag>>slotBits+1)
	}
	before := d.status.Load()
	if stateOf(tag) != stateCommitted || !help(tag) {
		t.Fatal("stale tag does not read as committed")
	}
	if d.status.Load() != before {
		t.Fatal("helping a stale tag changed the slot's status word")
	}
	if got := root.rec.r.info.Load(); got != tag {
		t.Fatalf("record's tag changed from %#x to %#x", tag, got)
	}
	if _, st := LLX(root); st != Snapshot {
		t.Fatalf("LLX under a stale tag = %v, want Snapshot", st)
	}
	v, nv := fixedV(lk)
	if !VLXFixed(&v, nv) {
		t.Fatal("evidence taken before the slot moved on no longer validates")
	}
}

// llxEntryPoints are the two ways into llx, each reduced to what it
// reports: the generic LLX that finds the record and the fields through the
// DataRecord methods, and the one a node type that knows its layout calls.
var llxEntryPoints = []struct {
	name string
	llx  func(n *tnode) (c0, c1 *tnode, tag uint64, st Status)
}{
	{"LLX", func(n *tnode) (*tnode, *tnode, uint64, Status) {
		lk, st := LLX(n)
		return lk.Child(0), lk.Child(1), lk.ev.info, st
	}},
	{"Record.LLX", func(n *tnode) (*tnode, *tnode, uint64, Status) {
		lk, st := n.rec.LLX(n, &n.left, &n.right)
		return lk.Child(0), lk.Child(1), lk.ev.info, st
	}},
}

// orphanSCX runs an SCX that replaces parent's left child, finalizing it,
// through SCXP with pl's commit hook under a pin of its own, and dies of a
// chaos panic at point: the SCX stays in progress, with the steps before
// point done, and its slot free, until someone helps it.
func orphanSCX(t *testing.T, point sched.PointID, parent *tnode, pl *Pool[tnode]) {
	t.Helper()
	child := parent.left.Load()
	lkP, _ := LLX(parent)
	lkC, _ := LLX(child)
	if err := sched.EnableChaos(sched.ChaosConfig{Seed: 1, Points: map[sched.PointID]sched.ChaosPolicy{point: {Panic: 1_000_000}}}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer sched.DisableChaos()
		w := sched.RegisterChaos(0)
		defer w.Close()
		defer func() {
			if _, isChaos := recover().(sched.ChaosPanic); !isChaos {
				t.Fatalf("the SCX survived a certain panic at %v", point)
			}
		}()
		g := epoch.Pin()
		defer epoch.Unpin(g)
		v, nv := fixedV(lkP, lkC)
		r, nr := fixedR(child)
		SCXP(g, pl, &v, nv, &r, nr, &parent.left, child, newTNode(5, nil, nil))
	}()
	for _, n := range []*tnode{parent, child} {
		if tag := n.rec.r.info.Load(); tag == lkP.ev.info || stateOf(tag) != stateInProgress {
			t.Fatalf("record %d is not frozen by an SCX in progress", n.key)
		}
	}
}

// TestLLXInEveryRecordState puts a record in each state an LLX can find it
// in and checks, for every entry point, the status it reports and that a
// snapshot carries the record's children and tag; every failing outcome
// carries nothing. All entry points share one implementation, so this pins
// the casts around it and the decision table itself: a snapshot exactly
// when the record's last SCX is over (aborted, committed or forgotten), did
// not finalize it, and did not give way to another between the two reads of
// the tag. That last state takes the schedule controller, parking the LLX
// between the two reads: TestLLXTagChangedBetweenReads.
func TestLLXInEveryRecordState(t *testing.T) {
	// Every SCX of a setup runs under the one guard it is handed, so "the
	// same descriptor again" is that guard's.
	// replaceLeft commits an SCX on n that swings its left child; remove
	// runs one on a parent of n instead and finalizes n.
	replaceLeft := func(t *testing.T, g *epoch.Guard, n *tnode) {
		lk, _ := LLX(n)
		if !scxPinned(g, []Linked[tnode]{lk}, nil, &n.left, lk.Child(0), newTNode(9, nil, nil)) {
			t.Fatal("SCX failed")
		}
	}
	remove := func(t *testing.T, g *epoch.Guard, n *tnode) {
		parent := newTNode(10, n, nil)
		lkP, _ := LLX(parent)
		lkN, _ := LLX(n)
		if !scxPinned(g, []Linked[tnode]{lkP, lkN}, []*tnode{n}, &parent.left, n, newTNode(5, nil, nil)) {
			t.Fatal("SCX failed")
		}
	}
	// moveSlotOn runs one more SCX, on unrelated records, in the descriptor
	// n's tag names, so that the tag is stale.
	moveSlotOn := func(t *testing.T, g *epoch.Guard, n *tnode) {
		tag := n.rec.r.info.Load()
		replaceLeft(t, g, newTNode(20, newTNode(21, nil, nil), nil))
		if seq := table[tag&slotMask].status.Load() >> seqShift; seq != tag>>slotBits+1 {
			t.Fatalf("the record's slot is at sequence %d, want %d: its tag is not stale", seq, tag>>slotBits+1)
		}
	}
	fresh := func() *tnode { return newTNode(2, newTNode(1, nil, nil), newTNode(3, nil, nil)) }

	cases := []struct {
		name string
		// setup returns the record to LLX.
		setup     func(t *testing.T, g *epoch.Guard) *tnode
		want      Status
		wantState uint64 // of the tag a snapshot carries
		// after is the status of a second LLX: the first one has helped
		// whatever it found in progress.
		after Status
	}{
		{name: "never frozen", setup: func(t *testing.T, g *epoch.Guard) *tnode { return fresh() },
			want: Snapshot, wantState: stateCommitted, after: Snapshot},
		{name: "committed", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			replaceLeft(t, g, n)
			return n
		}, want: Snapshot, wantState: stateCommitted, after: Snapshot},
		{name: "aborted", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			// An SCX freezes n, then finds its second record changed.
			n, other := fresh(), fresh()
			lkN, _ := LLX(n)
			lkO, _ := LLX(other)
			replaceLeft(t, g, other)
			if scxPinned(g, []Linked[tnode]{lkN, lkO}, nil, &n.left, lkN.Child(0), newTNode(9, nil, nil)) {
				t.Fatal("SCX on a changed record committed")
			}
			return n
		}, want: Snapshot, wantState: stateAborted, after: Snapshot},
		{name: "stale", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			replaceLeft(t, g, n)
			moveSlotOn(t, g, n)
			return n
		}, want: Snapshot, wantState: stateCommitted, after: Snapshot},
		{name: "finalized", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			remove(t, g, n)
			return n
		}, want: Finalized, after: Finalized},
		{name: "finalized, stale", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			remove(t, g, n)
			moveSlotOn(t, g, n)
			return n
		}, want: Finalized, after: Finalized},
		{name: "in progress, frozen", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			orphanSCX(t, sched.PointSCXMark, n, testPool)
			return n
		}, want: Fail, after: Snapshot},
		{name: "in progress, frozen, to be finalized", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			orphanSCX(t, sched.PointSCXMark, newTNode(10, n, nil), testPool)
			return n
		}, want: Fail, after: Finalized},
		{name: "in progress, updated", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			orphanSCX(t, sched.PointSCXCommit, n, testPool)
			return n
		}, want: Fail, after: Snapshot},
		{name: "in progress, finalized", setup: func(t *testing.T, g *epoch.Guard) *tnode {
			n := fresh()
			orphanSCX(t, sched.PointSCXCommit, newTNode(10, n, nil), testPool)
			return n
		}, want: Finalized, after: Finalized},
	}
	for _, tc := range cases {
		for _, ep := range llxEntryPoints {
			t.Run(tc.name+"/"+ep.name, func(t *testing.T) {
				g := epoch.Pin()
				defer epoch.Unpin(g)
				n := tc.setup(t, g)
				c0, c1, tag, st := ep.llx(n)
				if st != tc.want {
					t.Fatalf("status = %v, want %v", st, tc.want)
				}
				if st == Snapshot {
					if c0 != n.left.Load() || c1 != n.right.Load() || tag != n.rec.r.info.Load() {
						t.Fatalf("snapshot = (%p, %p, tag %#x), record holds (%p, %p, tag %#x)",
							c0, c1, tag, n.left.Load(), n.right.Load(), n.rec.r.info.Load())
					}
					if got := stateOf(tag); got != tc.wantState {
						t.Fatalf("the snapshot's tag names an SCX in state %d, want %d", got, tc.wantState)
					}
				} else if c0 != nil || c1 != nil || tag != 0 {
					t.Fatalf("%v came with (%p, %p, tag %#x), want nothing", st, c0, c1, tag)
				}
				if _, _, _, st := ep.llx(n); st != tc.after {
					t.Fatalf("second LLX = %v, want %v", st, tc.after)
				}
				if stateOf(n.rec.r.info.Load()) == stateInProgress {
					t.Fatal("the LLX left the record's SCX in progress")
				}
			})
		}
	}
}

// TestReleaseRecordKeepsTag: recycling clears the mark but not the tag, so a
// freezing CAS left over from the record's previous life cannot succeed.
func TestReleaseRecordKeepsTag(t *testing.T) {
	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)
	if !scxOnce([]Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, newTNode(5, nil, nil)) {
		t.Fatal("SCX failed")
	}
	tag := child.rec.r.info.Load()
	ReleaseRecord(&child.rec)
	if child.rec.Marked() || child.rec.r.info.Load() != tag || tag == 0 {
		t.Fatalf("after ReleaseRecord: marked=%v tag=%#x (was %#x)", child.rec.Marked(), child.rec.r.info.Load(), tag)
	}
	// The recycled record is usable, and evidence from its previous life
	// (tag 0, before it was ever frozen) is dead for good.
	if _, st := LLX(child); st != Snapshot {
		t.Fatalf("LLX on recycled record = %v, want Snapshot", st)
	}
	other := newTNode(3, child, nil)
	lkOther, _ := LLX(other)
	if scxOnce([]Linked[tnode]{lkOther, lkChild}, []*tnode{child}, &other.left, child, newTNode(6, nil, nil)) {
		t.Fatal("SCX with evidence from before the record was recycled committed")
	}
}

// TestConcurrentSCXOnSharedParent hammers a single parent node with many
// goroutines each trying to replace the same child. Exactly the successful
// SCXs must be reflected in the final chain, and every replaced node must be
// finalized.
func TestConcurrentSCXOnSharedParent(t *testing.T) {
	root := newTNode(0, newTNode(1, nil, nil), nil)
	const goroutines = 8
	const attempts = 2000

	var successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				lkRoot, st := LLX(root)
				if st != Snapshot {
					continue
				}
				child := lkRoot.Child(0)
				if child == nil {
					t.Errorf("child unexpectedly nil")
					return
				}
				lkChild, st := LLX(child)
				if st != Snapshot {
					continue
				}
				repl := newTNode(int64(id*attempts+i+1000), nil, nil)
				if scxOnce([]Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, repl) {
					successes.Add(1)
					if !child.rec.Marked() {
						t.Errorf("replaced child not finalized")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if successes.Load() == 0 {
		t.Fatal("no SCX succeeded under contention; progress property violated")
	}
	// The surviving child must not be finalized.
	if cur := root.left.Load(); cur.rec.Marked() {
		t.Fatal("current child of root is finalized but still in the structure")
	}
}

// TestConcurrentFixedAndPooledSCXStress interleaves the two entry points on
// a chain under contention: half the goroutines pin a slot per SCX, so the
// slots change hands between SCXs, half hold one pin across several SCXs, so
// a slot's consecutive sequence numbers meet helpers of the previous ones.
// The committed updates must form a single consistent chain
// whichever path performed them: every replaced node is finalized, the
// surviving nodes are not, the number of commits equals the number of nodes
// replaced, and at least one SCX from each entry point commits.
func TestConcurrentFixedAndPooledSCXStress(t *testing.T) {
	// root -> mid -> leaf: updates replace mid (V = root, mid) or leaf
	// (V = mid, leaf), so consecutive SCXs of one slot overlap on mid.
	root := newTNode(0, newTNode(1, newTNode(2, nil, nil), nil), nil)
	const goroutines = 8
	const attempts = 2000

	var fixedSuccesses, pooledSuccesses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pooled := id%2 == 1
			var guard *epoch.Guard
			for i := 0; i < attempts; i++ {
				if pooled && i%8 == 0 {
					if guard != nil {
						epoch.Unpin(guard)
					}
					guard = epoch.Pin()
				}
				parent := root
				if i%2 == 1 {
					if parent = root.left.Load(); parent == nil {
						t.Errorf("mid unexpectedly nil")
						return
					}
				}
				lkParent, st := LLX(parent)
				if st != Snapshot {
					continue
				}
				child := lkParent.Child(0)
				if child == nil {
					t.Errorf("child unexpectedly nil")
					return
				}
				lkChild, st := LLX(child)
				if st != Snapshot {
					continue
				}
				repl := newTNode(int64(id*attempts+i+1000), lkChild.Child(0), nil)
				var ok bool
				if pooled {
					ok = scxPinned(guard, []Linked[tnode]{lkParent, lkChild}, []*tnode{child}, &parent.left, child, repl)
				} else {
					ok = scxFixed([]Linked[tnode]{lkParent, lkChild}, []*tnode{child}, &parent.left, child, repl)
				}
				if ok {
					if pooled {
						pooledSuccesses.Add(1)
					} else {
						fixedSuccesses.Add(1)
					}
					if !child.rec.Marked() {
						t.Errorf("replaced child not finalized")
						return
					}
					if parent.left.Load() == child {
						t.Errorf("committed SCX left the replaced child in place")
						return
					}
				}
			}
			if guard != nil {
				epoch.Unpin(guard)
			}
		}(g)
	}
	wg.Wait()
	if fixedSuccesses.Load() == 0 {
		t.Fatal("no SCXFixed succeeded under contention")
	}
	if pooledSuccesses.Load() == 0 {
		t.Fatal("no SCXP succeeded under contention")
	}
	for n := root; n != nil; n = n.left.Load() {
		if n.rec.Marked() {
			t.Fatalf("node %d is finalized but still in the structure", n.key)
		}
		if _, st := LLX(n); st != Snapshot {
			t.Fatalf("node %d left frozen at quiescence: LLX = %v", n.key, st)
		}
	}
}

// TestOrphanedSCXIsFinishedBeforeReuse abandons an SCX in mid-protocol (a
// chaos panic unwinds its initiator) and then issues the next SCX from the
// same descriptor, on unrelated records so that nothing but the
// terminal-before-reuse rule can finish the orphan. The orphan must be
// terminal before the slot's sequence number moves, its update must have
// taken effect exactly as if its initiator had survived, and none of its
// records may stay frozen. Through SCXP one pin spans both SCXs; an SCXFixed
// that dies must leave its slot free, and the next SCX is whoever pins that
// slot next.
func TestOrphanedSCXIsFinishedBeforeReuse(t *testing.T) {
	// A 50% panic rate at the freezing CAS abandons SCXs with none or one of
	// their two records frozen, depending on the seed; a certain panic at
	// the mark step abandons them with everything frozen and nothing marked.
	policies := map[string]map[sched.PointID]sched.ChaosPolicy{
		"freeze": {sched.PointSCXFreeze: {Panic: 500_000}},
		"mark":   {sched.PointSCXMark: {Panic: 1_000_000}},
	}
	for _, ep := range []string{"SCXP", "SCXFixed"} {
		for name, points := range policies {
			t.Run(ep+"/"+name, func(t *testing.T) {
				frozenAtPanic := map[int]int{}
				for seed := int64(1); seed <= 24; seed++ {
					frozenAtPanic[orphanRound(t, ep == "SCXP", points, seed)]++
				}
				t.Logf("records frozen when the initiator died (-1: it survived): %v", frozenAtPanic)
				if name == "freeze" && frozenAtPanic[1] == 0 {
					t.Fatal("no seed abandoned an SCX between its two freezing CASes")
				}
				if name == "mark" && frozenAtPanic[2] != 24 {
					t.Fatal("a certain panic at the mark step did not fire after both freezes")
				}
			})
		}
	}
}

// orphanRound runs one abandon-then-reuse round and returns how many of the
// orphan's records were frozen when its initiator died (-1 if it survived).
func orphanRound(t *testing.T, pinned bool, points map[sched.PointID]sched.ChaosPolicy, seed int64) int {
	t.Helper()
	var g *epoch.Guard
	if pinned {
		g = epoch.Pin()
		defer epoch.Unpin(g)
	}
	// scx runs under g, or through SCXFixed while there is none.
	scx := func(lks []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
		if g != nil {
			return scxPinned(g, lks, fin, fld, old, new)
		}
		return scxFixed(lks, fin, fld, old, new)
	}

	child := newTNode(1, nil, nil)
	root := newTNode(2, child, nil)
	repl := newTNode(5, nil, nil)
	lkRoot, _ := LLX(root)
	lkChild, _ := LLX(child)

	if err := sched.EnableChaos(sched.ChaosConfig{Seed: seed, Points: points}); err != nil {
		t.Fatal(err)
	}
	// attempt runs one SCX and reports whether a chaos panic unwound it.
	attempt := func(lks []Linked[tnode], fin []*tnode, fld *atomic.Pointer[tnode], old, new *tnode) (ok, died bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, isChaos := r.(sched.ChaosPanic); !isChaos {
					panic(r)
				}
				died = true
			}
		}()
		return scx(lks, fin, fld, old, new), false
	}
	w := sched.RegisterChaos(0)
	_, died := attempt([]Linked[tnode]{lkRoot, lkChild}, []*tnode{child}, &root.left, child, repl)
	w.Close()
	sched.DisableChaos()
	if !died {
		return -1
	}

	// Find the orphan: at quiescence it is the only SCX in progress, and it
	// sits in the descriptor of the guard, or of a slot that is free again.
	slot := -1
	for i := range table {
		if table[i].status.Load()&stateMask == stateInProgress {
			if slot != -1 {
				t.Fatalf("seed %d: descriptors %d and %d both in progress", seed, slot, i)
			}
			slot = i
		}
	}
	if slot == -1 {
		t.Fatalf("seed %d: the abandoned SCX is not in progress anywhere", seed)
	}
	if g != nil && slot != g.Slot() {
		t.Fatalf("seed %d: orphan in descriptor %d, not in the guard's (%d)", seed, slot, g.Slot())
	}
	if slot >= epoch.NumSlots {
		t.Fatalf("seed %d: orphan in descriptor %d, which no epoch slot owns", seed, slot)
	}
	st := table[slot].status.Load()
	orphan := st>>seqShift<<slotBits | uint64(slot)
	frozen := 0
	for _, n := range []*tnode{root, child} {
		if n.rec.r.info.Load() == orphan {
			frozen++
		}
	}

	// The next SCX of the slot, on records the orphan never touched.
	if g == nil {
		g = pinSlot(t, slot) // fails if the SCXFixed that died kept the slot pinned
		defer epoch.Unpin(g)
	}
	other := newTNode(20, newTNode(10, nil, nil), nil)
	lkOther, _ := LLX(other)
	if ok, _ := attempt([]Linked[tnode]{lkOther}, nil, &other.left, lkOther.Child(0), newTNode(11, nil, nil)); !ok {
		t.Fatalf("seed %d: the SCX after the orphan failed", seed)
	}
	if got := table[slot].status.Load() >> seqShift; got != st>>seqShift+1 {
		t.Fatalf("seed %d: the next SCX ran on sequence %d, want %d (same descriptor)", seed, got, st>>seqShift+1)
	}
	// Uncontended, so the orphan must have committed, in full.
	if root.left.Load() != repl || !child.rec.Marked() {
		t.Fatalf("seed %d: orphan frozen at %d records was not completed: root.left=%p (want %p), child marked=%v",
			seed, frozen, root.left.Load(), repl, child.rec.Marked())
	}
	if _, st := LLX(root); st != Snapshot {
		t.Fatalf("seed %d: orphan's parent record left frozen: LLX = %v", seed, st)
	}
	if _, st := LLX(child); st != Finalized {
		t.Fatalf("seed %d: orphan's removed record: LLX = %v, want Finalized", seed, st)
	}
	return frozen
}

// TestScrubDropsDescriptorReferences: after epoch.DiscardAll no descriptor
// still references a block, its current one or one it replaced, a tag handed
// out before the scrub is stale, and a dropped tree whose nodes only a
// replaced block still reached is collected.
func TestScrubDropsDescriptorReferences(t *testing.T) {
	root := newTNode(2, newTNode(1, nil, nil), nil)
	for _, scx := range []func([]Linked[tnode], []*tnode, *atomic.Pointer[tnode], *tnode, *tnode) bool{scxFixed, scxOnce} {
		lk, _ := LLX(root)
		if !scx([]Linked[tnode]{lk}, nil, &root.left, lk.Child(0), newTNode(9, nil, nil)) {
			t.Fatal("SCX failed")
		}
	}
	tag := root.rec.r.info.Load()
	dropped := updateAndDrop(t)
	runtime.GC()
	if dropped.Value() == nil {
		t.Fatal("the dropped tree was collected before the scrub: no block kept it")
	}
	// Read after updateAndDrop's SCXs, which may run on the same slot.
	seq := table[tag&slotMask].status.Load() >> seqShift
	epoch.DiscardAll()
	for i := range table {
		if d := &table[i]; d.block.Load() != nil || d.spare.Len() != 0 {
			t.Fatalf("descriptor %d still holds blocks (current %p, %d replaced)", i, d.block.Load(), d.spare.Len())
		}
	}
	if got := table[tag&slotMask].status.Load() >> seqShift; got != seq+1 {
		t.Fatalf("scrub moved the sequence number from %d to %d, want %d", seq, got, seq+1)
	}
	if _, st := LLX(root); st != Snapshot {
		t.Fatalf("LLX after scrub = %v", st)
	}
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("a node of a dropped tree is still reachable after DiscardAll")
	}
}

// updateAndDrop removes a leaf from a fresh tree and then runs one more SCX
// on the same slot, so the block that names the leaf sits in the slot's
// Recycler, and drops both trees. It returns a weak pointer to the leaf, which
// only that block still reaches.
func updateAndDrop(t *testing.T) weak.Pointer[tnode] {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	leaf := newTNode(1, nil, nil)
	root := newTNode(2, leaf, nil)
	lkR, _ := LLX(root)
	lkL, _ := LLX(leaf)
	if !scxPinned(g, []Linked[tnode]{lkR, lkL}, []*tnode{leaf}, &root.left, leaf, newTNode(3, nil, nil)) {
		t.Fatal("SCX failed")
	}
	other := newTNode(20, newTNode(10, nil, nil), nil)
	lkO, _ := LLX(other)
	if !scxPinned(g, []Linked[tnode]{lkO}, nil, &other.left, lkO.Child(0), newTNode(11, nil, nil)) {
		t.Fatal("SCX failed")
	}
	return weak.Make(leaf)
}

// TestBlockLifetime follows one slot's argument blocks through their life,
// one pin per SCX as a tree operation holds: while a reader stays pinned
// every SCX gets a block of its own; once the reader has unpinned and the
// epoch has moved on, the slot rewrites a block it replaced and lets the
// surplus go, so one long pin does not leave the slot holding its peak count
// for good; from then on the slot's SCXs rewrite the blocks it already has;
// and while a watchdog eviction is active it rewrites none, however far the
// epoch moves. internal/epoch's TestRecyclerLifetime pins the epoch counts.
func TestBlockLifetime(t *testing.T) {
	epoch.DiscardAll() // every Recycler empty
	g := epoch.Pin()
	slot := g.Slot()
	d := &table[slot]
	// update runs one SCX on the slot's descriptor, under g if it is not
	// nil and else under a pin of its own, and returns the block it ran from.
	update := func(g *epoch.Guard) *block {
		t.Helper()
		if g == nil {
			g = pinSlot(t, slot)
			defer epoch.Unpin(g)
		}
		n := newTNode(2, newTNode(1, nil, nil), nil)
		lk, _ := LLX(n)
		if !scxPinned(g, []Linked[tnode]{lk}, nil, &n.left, lk.Child(0), newTNode(3, nil, nil)) {
			t.Fatal("SCX failed")
		}
		return d.block.Load()
	}

	// Enough SCXs for the slot to try advancing the epoch itself, twice.
	const k = 200
	reader := epoch.Pin()
	seen := map[*block]bool{}
	for i := 0; i < k; i++ {
		// The reader holds the epoch, and so every block the slot replaces.
		if b := update(g); seen[b] {
			t.Fatalf("SCX %d rewrote a block while a reader was pinned", i)
		} else {
			seen[b] = true
		}
	}
	if n := d.spare.Len(); n != k-1 {
		t.Fatalf("%d SCXs left %d blocks in the Recycler, want %d", k, n, k-1)
	}

	epoch.Unpin(reader)
	epoch.Unpin(g)
	epoch.Drain() // the epoch moves on with nothing pinned
	if b := update(nil); !seen[b] {
		t.Fatal("the SCX after the reader left did not rewrite a block its slot replaced")
	}
	if n := d.spare.Len(); n != 1 {
		t.Fatalf("the Recycler kept %d blocks after the reader left, want 1 (the one just replaced)", n)
	}

	// The slot grows back to what it replaces in two epochs, which the
	// Recycler moves itself every so many SCXs, and then allocates no more.
	for i := 0; i < k; i++ {
		seen[update(nil)] = true
	}
	for i := 0; i < k; i++ {
		if b := update(nil); !seen[b] {
			t.Fatalf("SCX %d in the steady state ran from a new block (the Recycler holds %d)", i, d.spare.Len())
		}
	}

	w := epoch.StartWatchdog(time.Millisecond, 20*time.Millisecond)
	defer w.Stop()
	// The stalled holder pins while g holds the slot, so it takes another.
	g = pinSlot(t, slot)
	stalled := epoch.Pin()
	defer epoch.Unpin(stalled)
	epoch.Unpin(g)
	for deadline := time.Now().Add(10 * time.Second); epoch.Stats().StalledSlots == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watchdog did not evict a slot pinned for 10 s")
		}
	}
	epoch.Drain() // the evicted slot no longer holds the epoch back
	for i := 0; i < k; i++ {
		if b := update(nil); seen[b] {
			t.Fatalf("SCX %d rewrote a block during an eviction", i)
		} else {
			seen[b] = true
		}
	}
}

// TestUnpinnedHelperPins: an LLX whose caller holds no guard and that meets
// an SCX in progress helps it under a pin of its own, so the SCX's slot
// cannot rewrite the block the helper runs from. The SCX's commit hook runs
// inside the helper and finds that the epoch cannot move two past where it
// stands, which it could if nothing were pinned.
func TestUnpinnedHelperPins(t *testing.T) {
	pl := NewPool[tnode]()
	ran := false
	pl.OnCommit = func(_ *atomic.Pointer[tnode], _, _ *tnode) {
		ran = true
		e := epoch.Stats().Epoch
		epoch.Drain()
		if got := epoch.Stats().Epoch; got >= e+2 {
			t.Errorf("a helper ran an SCX from its block while the epoch moved from %d to %d: its slot could have rewritten the block", e, got)
		}
	}
	n := newTNode(2, newTNode(1, nil, nil), nil)
	orphanSCX(t, sched.PointSCXMark, n, pl)
	if n := epoch.Stats().PinnedSlots; n != 0 {
		t.Fatalf("%d slots pinned with the SCX orphaned", n)
	}
	if _, st := LLX(n); st != Fail {
		t.Fatalf("LLX of a record frozen by an SCX in progress = %v, want Fail", st)
	}
	if !ran {
		t.Fatal("the LLX did not help the SCX through its commit hook")
	}
}

// TestDescriptorLayout pins what the padding is for: two cache lines per
// descriptor, starting on a line boundary, the status word an LLX reads
// through some other slot's tag and the block pointer helpers load on the
// first, and the owner's Recycler on the second, so neither shares a line
// with a neighbour's and no helper's load touches the line the owner writes.
func TestDescriptorLayout(t *testing.T) {
	var d desc
	if size := unsafe.Sizeof(d); size != 2*cacheLine {
		t.Fatalf("sizeof(desc) = %d, want %d", size, 2*cacheLine)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
		line      uintptr
	}{
		{"status", unsafe.Offsetof(d.status), unsafe.Sizeof(d.status), 0},
		{"block", unsafe.Offsetof(d.block), unsafe.Sizeof(d.block), 0},
		{"spare", unsafe.Offsetof(d.spare), unsafe.Sizeof(d.spare), 1},
	} {
		if f.off/cacheLine != f.line || (f.off+f.size-1)/cacheLine != f.line {
			t.Errorf("desc.%s at bytes [%d, %d), want it on line %d", f.name, f.off, f.off+f.size, f.line)
		}
	}
	if addr := uintptr(unsafe.Pointer(&table[0])); addr%cacheLine != 0 {
		t.Fatalf("descriptor table at %#x is not cache-line aligned", addr)
	}
	if len(table) != epoch.NumSlots {
		t.Fatalf("%d descriptors for %d epoch slots", len(table), epoch.NumSlots)
	}
	if unsafe.Sizeof(atomic.Pointer[tnode]{}) != unsafe.Sizeof(unsafe.Pointer(nil)) {
		t.Fatal("atomic.Pointer[N] is not one pointer word: fld cannot be type-erased")
	}
	// A slot's Recycler holds a few epochs' worth of these.
	if size := unsafe.Sizeof(block{}); size != 144 {
		t.Fatalf("sizeof(block) = %d, want 144", size)
	}
	// An update stages MaxV of these on its frame.
	if size := unsafe.Sizeof(Linked[tnode]{}); size != 48 {
		t.Fatalf("sizeof(Linked) = %d, want 48", size)
	}
}

func BenchmarkLLX(b *testing.B) {
	root := newTNode(2, newTNode(1, nil, nil), newTNode(3, nil, nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, st := LLX(root); st != Snapshot {
			b.Fatal("unexpected LLX failure")
		}
	}
}

// BenchmarkSCXUncontended measures one uncontended update (two LLXs, one
// fresh node, one SCX) through each entry point. Both pin a slot per SCX, as
// a tree operation does: under one pin held across the loop the SCXP
// variant's slot could rewrite none of its blocks, since the epoch cannot
// move two past its owner's own pin.
func BenchmarkSCXUncontended(b *testing.B) {
	for _, ep := range []struct {
		name string
		scx  func(v *[MaxV]Linked[tnode], r *[MaxV]*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool
	}{
		{"SCXFixed", func(v *[MaxV]Linked[tnode], r *[MaxV]*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
			return SCXFixed(v, 2, r, 1, fld, old, new)
		}},
		{"SCXP", func(v *[MaxV]Linked[tnode], r *[MaxV]*tnode, fld *atomic.Pointer[tnode], old, new *tnode) bool {
			g := epoch.Pin()
			defer epoch.Unpin(g)
			return SCXP(g, testPool, v, 2, r, 1, fld, old, new)
		}},
	} {
		b.Run(ep.name, func(b *testing.B) {
			root := newTNode(2, newTNode(1, nil, nil), nil)
			var v [MaxV]Linked[tnode]
			var r [MaxV]*tnode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v[0], _ = LLX(root)
				child := v[0].Child(0)
				v[1], _ = LLX(child)
				r[0] = child
				if !ep.scx(&v, &r, &root.left, child, newTNode(int64(i), nil, nil)) {
					b.Fatal("uncontended SCX failed")
				}
			}
		})
	}
}
