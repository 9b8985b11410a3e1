// Package epoch implements quiescent-state-based reclamation (QSBR) for the
// LLX/SCX dictionary stack: retired nodes wait on a per-slot retire list and
// are freed only after every concurrently pinned operation has provably
// finished, at which point the memory can be reused (on the trees' free
// lists) instead of going back to the garbage collector.
//
// The paper's Java implementation leans on the JVM's collector for exactly
// this guarantee ("a node is never recycled while any process can still
// reach it"), which is what rules out ABA on the protocol's CAS steps. This
// package supplies the same guarantee manually so that the trees can reuse
// their nodes; the precise re-derivation of the ABA safety argument lives in
// DESIGN.md ("Epoch reclamation and the ABA re-derivation"). The slots
// double as the owners of internal/llxscx's SCX descriptors: a pinned
// operation holds its slot exclusively, so Guard.Slot indexes a descriptor
// nobody else can start an SCX on, and the descriptor's argument blocks are
// recycled under the same grace period as retirees (Recycler).
//
// # Model
//
// A fixed array of padded slots holds the per-operation state. Every
// dictionary operation claims a free slot with one CAS (Pin), stamping it
// with the current global epoch, and releases it with one store (Unpin).
// The global epoch advances when every claimed slot has been observed at
// the current epoch; an object retired at epoch E becomes freeable once the
// global epoch reaches E+2, because any operation that could still hold a
// reference was pinned before the retire and would have held the epoch back.
// A slot's retire list and a Recycler are one structure, a FIFO of objects
// stamped with the epoch at which their owner stopped publishing them
// (fifo), and one test decides when either may let an object go.
//
// Retired objects carry a callback (Func) that performs the actual free —
// typically resetting the object and keeping it for reuse. The callback
// may refuse (return false), in which case the object goes back on the tail
// of the retire list stamped with the current epoch and is retried after a
// fresh grace period. A live snapshot pin (snap.go) holds the retirees it
// may still reach in place on their lists.
//
// A slot that holds one stale epoch for the stall bound is evicted by the
// retires it blocks (stall.go): until its holder unpins, the layer drops
// retirees to the garbage collector instead of recycling them.
//
// Build with -tags reclaimcheck to enable the recycled-node poisoning
// assertions in the trees (PoisonCheck).
package epoch

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/sched"
)

const (
	// NumSlots bounds the number of concurrently pinned operations. It is a
	// power of two so probing can wrap with a mask. Pins probe from below
	// hintSlots; the slots past it take the overflow, such as the second slot
	// internal/llxscx pins while an operation helps another's SCX. A Pin
	// finding every slot claimed yields and retries.
	NumSlots = 128
	slotMask = NumSlots - 1

	// advanceEvery is the number of retires a slot accepts between attempts
	// to advance the global epoch. Advancing scans the slots below the slot
	// mark, so the interval amortizes the scan to a fraction of a retire.
	advanceEvery = 64

	// drainRounds is the number of epoch advances Drain tries: enough for a
	// retiree whose callback refuses twice to be freed by one call.
	drainRounds = 9

	// yieldPending is the per-slot backlog above which a failed epoch
	// advance makes Retire yield the processor (blocked). On an
	// oversubscribed scheduler (more workers than CPUs) a goroutine can be
	// preempted in the middle of a pinned operation and sit on the run
	// queue for a whole timeslice; every retire in the meantime piles up behind its stale
	// epoch. Yielding hands the CPU to the blocker so it can finish its
	// (short) operation and unpin, which bounds the retire backlog — and
	// with it the burst-free latency and the GC mark work on the lists —
	// at roughly this value instead of a full timeslice's worth of garbage.
	yieldPending = 512
)

// Func frees one retired object, typically by resetting it and keeping it
// for reuse. It runs on the goroutine that drains the retire list, always
// holding the list's slot (g), pinned or claimed by Drain. Returning false puts
// the object back on the tail of the retire list for a fresh grace period.
type Func func(g *Guard, obj any) bool

// entry is one retired object awaiting its grace period.
type entry struct {
	obj  any
	free Func
}

// Guard is one pinned-operation slot. Its first cache line is the only one
// other goroutines touch: the epoch advancer reads state and Pin claims it
// with CAS, and the publish-window counter beside it is opened by whoever runs
// an SCX of this slot and read by snapshot captures (DrainWindows). The owner's
// Pin CAS has just made that line exclusive, so its own windows cost no
// transfer. Everything from retired on is owned by the claim holder. The slot
// array starts on a line boundary (see slots) and the struct is a whole
// number of lines, so the first line is shared with no field an owner writes
// and with no neighbour. The guards that can be in use are those below
// slotMark.
type Guard struct {
	// state is 0 when the slot is free, else the global epoch observed at
	// Pin time. While claimed it is always within one of the current global
	// epoch (Pin re-validates after claiming; see the advance argument in
	// DESIGN.md).
	state atomic.Uint64
	// window counts the publish windows open on this slot (see Window).
	window Window
	// slot is the guard's index in the slot array, fixed at start-up.
	slot int
	_    [40]byte

	// retired is the slot's retire list, and retires counts retires since
	// the last epoch-advance attempt. pending counts the entries on retired;
	// it is atomic only so Pending/Drain can read it without claiming the
	// slot.
	retired fifo[entry]
	retires int
	pending atomic.Int64
	_       [8]byte
}

// Slot returns the index of g's slot, in [0, NumSlots). While g is pinned
// its holder is the slot's only owner.
func (g *Guard) Slot() int { return g.slot }

// stalledState is the eviction sentinel. Retire's slow path (blocked) moves
// a slot that has held one stale epoch for stallAfter (stuck, leaked, or
// parked mid-operation) to it, so advance stops counting the slot; degraded
// mode re-establishes the safety that came from blocking the advance (see
// drain). It is never a valid epoch — epochs count up from 1 — and never
// pinned, since Pin's CAS only fires on 0. Only Unpin moves a slot off it.
const stalledState = ^uint64(0)

var (
	// globalEpoch starts at 1 so a state word of 0 can mean "free".
	globalEpoch atomic.Uint64

	// slots is allocated, not static, so that it can start on a cache-line
	// boundary (the linker aligns a static array to less), and a slice, not
	// a pointer to the array, so that indexing it costs a bounds check
	// instead of a nil check that reads slot 0's state line on every Pin.
	slots = NewAligned[[NumSlots]Guard]()[:]

	// hintSlots is the range slotHint folds goroutines into, read once
	// because runtime.GOMAXPROCS takes the scheduler's lock.
	hintSlots = min(2*runtime.GOMAXPROCS(0), NumSlots)

	// slotMark is one past the highest slot a Pin may have claimed, where
	// every scan of the slots stops. It starts at hintSlots, so only a Pin
	// that probes past that range raises it (pinOverflow), before its claim.
	slotMark atomic.Int64

	// degradedPins counts evicted slots whose holder has not been seen to
	// unpin. While it is nonzero the layer is in degraded mode: the drains
	// drop retirees to the garbage collector instead of recycling them,
	// since an evicted holder may still reach anything retired since it
	// pinned. An eviction increments it BEFORE its CAS to stalledState, so
	// no advance the eviction enables completes a grace period ahead of the
	// mode switch; recoverEvicted decrements it.
	degradedPins atomic.Int64

	// Cumulative diagnostics, surfaced by Stats.
	advanceFails  atomic.Int64 // epoch advances blocked by a lagging slot
	freeRefusals  atomic.Int64 // free callbacks that refused and were re-queued
	degradedDrops atomic.Int64 // retirees dropped to GC in degraded mode
	evictions     atomic.Int64 // stalled slots evicted by Retire
	recoveries    atomic.Int64 // evicted slots whose holder later unpinned
	windowWaits   atomic.Int64 // DrainWindows calls that found a window open
	drainSlots    atomic.Int64 // slots the last DrainWindows scanned
)

// CacheLine is the line size the layouts of this package and of
// internal/llxscx are padded and aligned to.
const CacheLine = 64

// NewAligned allocates a zeroed T on a cache-line boundary (the slot array
// here, internal/llxscx's descriptor table, a counter block, internal/lbst's
// free lists). The allocator
// places an object of a whole number of lines on one, except that it puts an
// eight-byte type header in front of some (since Go 1.22, those holding
// pointers that are larger than 512 bytes and not large enough for a span of
// their own), which the second attempt pads to a line. Alignment is a matter
// of cache traffic, not of correctness, so nothing here insists on it: the
// layout tests of the users do (TestGuardLayout, llxscx's
// TestDescriptorLayout, TestCounterBlocksArePrivateLines, lbst's
// TestFreeListLayout).
func NewAligned[T any]() *T {
	if p := new(T); uintptr(unsafe.Pointer(p))%CacheLine == 0 {
		return p
	}
	return &new(struct {
		_ [CacheLine - 8]byte
		v T
	}).v
}

func init() {
	globalEpoch.Store(1)
	slotMark.Store(int64(hintSlots))
	for i := range slots {
		slots[i].slot = i
	}
}

// slotHint derives a probe start below hintSlots from a hash of the
// goroutine's 8 KB stack block (not from the address's low bits, which two
// goroutines running the same loop share), or takes a schedule controller's
// worker's slot (sched.Slot): a goroutine lands on the same slot across
// operations, different goroutines scatter. The pointer is converted to
// uintptr at once, so the local does not heap-allocate.
func slotHint() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))>>13) * 0x9E3779B97F4A7C15 >> 32
	return sched.Slot(h * uint64(hintSlots) >> 32)
}

// raise lifts mark over slot i.
func raise(mark *atomic.Int64, i int) {
	for {
		m := mark.Load()
		if m > int64(i) || mark.CompareAndSwap(m, int64(i)+1) {
			return
		}
	}
}

// adopt drains what a previous owner left on g's slot, which Pin has just
// claimed, and raises the mark where LateMarkRaise left that to it.
//
//go:noinline
func (g *Guard) adopt() {
	if g.pending.Load() != 0 {
		g.drain(globalEpoch.Load())
	}
	if g.slot >= hintSlots && sched.Mutated(sched.LateMarkRaise) {
		raise(&slotMark, g.slot)
	}
}

// Pin claims a reclamation slot for the calling operation and returns its
// guard. Every dictionary operation that reads or writes shared nodes must
// run between Pin and Unpin; Retire may only be called with a guard that is
// currently pinned.
func Pin() *Guard {
	e := globalEpoch.Load()
	var g *Guard
	for i := slotHint(); ; i++ {
		if i >= uint64(hintSlots) {
			g, e = pinOverflow(i, e)
			break
		}
		if g = &slots[i]; g.state.Load() == 0 && g.state.CompareAndSwap(0, e) {
			break
		}
	}
	// Re-validate: if the global epoch advanced between the load and the
	// claim, re-stamp so the recorded epoch is never more than one behind
	// the global epoch (the advance-blocking invariant).
	if e2 := globalEpoch.Load(); e2 != e {
		g.state.Store(e2)
	}
	if g.pending.Load() != 0 || g.slot >= hintSlots {
		g.adopt()
	}
	return g
}

// pinOverflow goes on with Pin's probe from slot i, past the hint range and
// round the slot array, yielding once a lap, and returns the slot it claims
// and the epoch it claimed it at. It raises the mark over a slot past the
// hint range before trying to claim it, so an advance that scans below the
// mark cannot run twice past the claim (DESIGN.md, "Epoch reclamation").
//
//go:noinline
func pinOverflow(i, e uint64) (*Guard, uint64) {
	for ; ; i++ {
		g := &slots[i&slotMask]
		if g.slot >= hintSlots && !sched.Mutated(sched.LateMarkRaise) {
			raise(&slotMark, g.slot)
		}
		if g.state.Load() == 0 && g.state.CompareAndSwap(0, e) {
			return g, e
		}
		if i&slotMask == slotMask {
			runtime.Gosched()
			e = globalEpoch.Load()
		}
	}
}

// Unpin releases a guard obtained from Pin. The caller must not use the
// guard, or any pointer it was protecting, afterwards.
func Unpin(g *Guard) {
	g.state.Store(0)
}

// Retire hands obj to the reclamation layer: free(g', obj) will be called
// once no operation pinned at retire time can still hold a reference —
// concretely, once the global epoch has advanced twice past the current
// one. g must be the caller's pinned guard.
func Retire(g *Guard, obj any, free Func) {
	sched.Point(sched.PointEpochRetire)
	g.retired.push(entry{obj, free}, globalEpoch.Load())
	g.pending.Add(1)
	g.retires++
	if g.retires >= advanceEvery {
		g.retires = 0
		if tryAdvance() >= 0 && g.pending.Load() >= yieldPending {
			blocked(g)
		}
		g.drain(globalEpoch.Load())
	}
}

// drain frees the entries at the head of g's retire list whose grace period
// is over at epoch now, and stops at the first one still in it or stamped at
// or above a live snapshot pin's epoch (snapFloor): the stamps behind it are
// no smaller, so the same holds for everything behind it. A refusal goes back
// on the tail stamped now, for a fresh grace period. In degraded mode, unless
// the evicted holders have all unpinned (recoverEvicted), it drops the whole
// list to the garbage collector instead: the GC, unlike the free lists, sees
// an evicted holder's references, and dropping recycles nothing, so it is
// safe in a grace period too. The caller must own the slot (hold it pinned
// or have claimed it in Drain), and now must have been read after the
// entries were stamped.
func (g *Guard) drain(now uint64) {
	q := &g.retired
	if q.n == 0 {
		return
	}
	if degradedPins.Load() != 0 && !recoverEvicted() {
		n := int64(q.n)
		clear(q.ring)
		q.head, q.n = 0, 0
		degradedDrops.Add(n)
		g.pending.Add(-n)
		return
	}
	grace := gracePeriod()
	if !q.ready(now, grace) {
		return
	}
	floor := snapFloor()
	var freed int64
	for q.ready(now, grace) && q.stamp(0) < floor {
		if e := q.pop(); e.free(g, e.obj) {
			freed++
		} else {
			freeRefusals.Add(1)
			q.push(e, now)
		}
	}
	if freed != 0 {
		g.pending.Add(-freed)
	}
}

// tryAdvance advances the global epoch by one if every claimed slot has
// observed the current epoch. It returns the slot that blocked the advance,
// or -1 if the epoch moved. Evicted slots (stalledState) are skipped: their
// safety obligation has been transferred to degraded mode, which was entered
// before the sentinel became observable.
func tryAdvance() int {
	sched.Point(sched.PointEpochAdvance)
	return advance()
}

// advance is tryAdvance without the instrumentation point, for a Recycler,
// which moves the epoch from inside an SCX. It loads the epoch before the
// mark, which is what lets Pin raise the mark before its claim (pinOverflow).
// A lost race to move the epoch counts as a move: another advance did it.
func advance() int {
	g := globalEpoch.Load()
	for i := range slots[:slotMark.Load()] {
		if s := slots[i].state.Load(); s != 0 && s != g && s != stalledState {
			advanceFails.Add(1)
			return i
		}
	}
	globalEpoch.CompareAndSwap(g, g+1)
	return -1
}

// DiscardAll drops every retire list, ring and all, without running the
// free callbacks, leaving the entries to the garbage collector. This is only
// sound at full quiescence when every structure that has retired through the
// layer is itself garbage: the point is to sever the references that
// otherwise keep a dropped structure reachable. An entry a drain has not
// reached yet, or one whose callback refuses, pins the tree its callback
// frees into as a GC root; and a slot's SCX argument
// blocks keep the arguments of its recent SCXs (nodes, and the structure's
// commit hook) until the slot rewrites them, which OnDiscard lets
// internal/llxscx drop. The benchmark harness calls this between trials so a
// long run's dead structures do not accumulate as mark-phase work for later
// trials.
func DiscardAll() {
	// Every free slot is claimed, as Pin would, for the whole call: the
	// discard hook owns the claimed slots exactly as a pinned operation does.
	var owned [NumSlots]bool
	now := globalEpoch.Load()
	for i := range slots[:slotMark.Load()] {
		g := &slots[i]
		if !g.state.CompareAndSwap(0, now) {
			continue
		}
		owned[i] = true
		g.retired = fifo[entry]{}
		g.pending.Store(0)
	}
	if discardHook != nil {
		discardHook(&owned)
	}
	for i := range owned {
		if owned[i] {
			slots[i].state.Store(0)
		}
	}
}

// discardHook is OnDiscard's registration.
var discardHook func(owned *[NumSlots]bool)

// OnDiscard registers fn to run inside every DiscardAll, with owned[i]
// reporting that DiscardAll holds slot i claimed for the duration of the
// call. It is for the one layer that keeps per-slot state outside this
// package (internal/llxscx's descriptors and argument blocks) and must be
// called from an init function.
func OnDiscard(fn func(owned *[NumSlots]bool)) { discardHook = fn }

// Pending returns the total number of retired objects whose grace period
// has not yet completed, or that a live snapshot pin holds, or whose free
// callback keeps refusing. Test and diagnostic use.
func Pending() int64 {
	var n int64
	for i := range slots[:slotMark.Load()] {
		n += slots[i].pending.Load()
	}
	return n
}

// Drain advances the epoch and frees everything eligible, repeatedly, and
// returns Pending afterwards. It is meant for quiescent moments (tests,
// shutdown): slots still pinned by live operations are skipped, and the
// epoch cannot advance past them, so calling it during activity merely does
// less. Like a drain in degraded mode it checks for evicted holders that
// have unpinned since (recoverEvicted); it evicts nothing. Retirees a live snapshot pin
// holds, and those whose free callback keeps refusing, remain pending. A
// retire ring Drain empties goes back to its minimum length, so a burst of
// retires does not keep its ring at the burst's size once the structure is
// quiescent. Drain is the only place a retire ring shrinks: shrinking one
// whenever a drain during operations left it a quarter full made the busy
// slots regrow their rings over and over.
func Drain() int64 {
	recoverEvicted()
	for round := 0; round < drainRounds; round++ {
		tryAdvance()
		now := globalEpoch.Load()
		for i := range slots[:slotMark.Load()] {
			g := &slots[i]
			if g.pending.Load() == 0 {
				continue
			}
			if !g.state.CompareAndSwap(0, now) {
				continue
			}
			g.drain(globalEpoch.Load())
			if q := &g.retired; q.n == 0 && len(q.ring) > minRing {
				q.resize(minRing)
			}
			g.state.Store(0)
		}
	}
	return Pending()
}
