// Package vcell provides the atomically publishable value cell shared by
// every concurrent dictionary in the repository. A cell decouples a node's
// value from the node's synchronization evidence: the trees built on the
// LLX/SCX template keep the cell outside the LLX snapshot (so an overwrite
// of a present key is a plain atomic publish, not a full SCX), and the
// skip-list and lock-based AVL baselines use it to store values without the
// one-box-per-store cost of atomic.Pointer[V].
//
// A cell has two representations, fixed at initialization:
//
//   - unboxed: the value is packed into a single machine word and published
//     with plain uint64 atomics. Available exactly for the word-sized scalar
//     types enumerated by Unboxed (the int64 values of the benchmark
//     registry among them); a Store or Swap allocates nothing.
//   - boxed: the value lives behind an atomic.Pointer[V]; every Store or
//     Swap allocates one box. This is the fallback for every other type
//     (strings, structs, pointers to caller-owned state, named types, ...).
//
// The representation is selected by the data structure's constructor: a
// structure computes Unboxed[V]() once and passes it to Init for every cell
// it creates. The cell stores no flag: a boxed cell holds a non-nil box from
// Init until its last Release, and an unboxed one never holds a box, so Load,
// Store and Swap take the representation from the box pointer they would
// read anyway on the boxed path - one load and a predictable branch, as a
// flag would cost.
//
// A cell is three words, 24 bytes: the alias count and the publish-bracket
// count share the first, then come the value word and the box pointer. The
// allocator's 24-byte size class puts two cells in eight across a cache-line
// boundary, one after the first word and one after the second. With the
// value word in the middle, a Load (box pointer, then value) and the
// bracket's two writes (count, then value) each stay on one line in seven
// placements of eight; a cell padded to 32 bytes would never cross a line,
// at 8 bytes more per key.
//
// Cells may be shared: the template trees alias one cell between a leaf and
// every copy of that leaf made by rebalancing or deletion, which is what
// makes the SCX-free overwrite safe (see the package comment of
// internal/lbst and the in-place overwrite section of DESIGN.md). A cell
// counts the nodes that alias it (Retain, Release); the last Release clears
// it for the trees to Init again.
package vcell

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/sched"
)

// Cell is an atomically publishable value slot. The zero Cell is not ready
// for use: call Init (or create cells with New) before the cell is shared,
// so the representation is fixed before any concurrent access.
type Cell[V any] struct {
	// refs counts the nodes aliasing the cell beyond the first: zero is one
	// holder, Retain adds one, and the Release that takes it below zero was
	// the last. Cells that are never released ignore it. Both counts are
	// words for sync/atomic's functions, one instruction in any package's
	// instantiation; atomic.Int32's methods were calls in some.
	refs int32
	// pubs counts in-flight publish brackets (BeginPublish..EndPublish), at
	// most one per goroutine. It lives on the cell - not on any node
	// embedding it - because copies alias the cell: a consumer that finalized
	// one leaf must drain publishers that entered through ANY aliasing leaf,
	// however stale. See the overwrite protocol in internal/lbst.
	pubs int32
	gen  epoch.Gen // bumped by every last Release; zero-size unless -tags reclaimcheck

	// word holds an unboxed value; ptr holds a boxed value's box (a *V) and
	// is nil in an unboxed cell. Their order is the line-placement trade-off
	// of the package comment. ptr is a word for the same reason as the
	// counts: atomic.Pointer[V]'s Load left a dictionary load in callers.
	word atomic.Uint64
	ptr  unsafe.Pointer
}

// Unboxed reports whether values of type V qualify for the unboxed (packed
// word) representation: V must be one of the fixed-size scalar types below,
// which all fit in a machine word and contain no pointers the garbage
// collector would need to see. Named types do not match even if their
// underlying type does; they take the boxed fallback, which is always
// correct.
func Unboxed[V any]() bool {
	switch any((*V)(nil)).(type) {
	case *int64, *uint64, *int, *uint, *uintptr,
		*int32, *uint32, *int16, *uint16, *int8, *uint8,
		*float64, *float32, *bool:
		return true
	}
	return false
}

// toWord packs a word-sized value into a uint64. It must only be reached
// when Unboxed[V]() is true (sizeof(V) <= 8 and V is pointer-free). A boxed
// cell reaches it only if it is written after its last Release, a bug the
// size check turns into a panic instead of a write past w.
func toWord[V any](v V) uint64 {
	if unsafe.Sizeof(v) > 8 {
		panic("vcell: store into a released cell")
	}
	var w uint64
	*(*V)(unsafe.Pointer(&w)) = v
	return w
}

// fromWord unpacks a value packed by toWord.
func fromWord[V any](w uint64) V {
	return *(*V)(unsafe.Pointer(&w))
}

// New returns a fresh cell holding v, selecting the representation from
// Unboxed[V](). It is the constructor for callers that leave their cells to
// the garbage collector; structures that embed or reuse cells use Init with a
// constructor-computed flag instead.
func New[V any](v V) *Cell[V] {
	c := &Cell[V]{}
	c.Init(Unboxed[V](), v)
	return c
}

// Init fixes the cell's representation and stores the initial value. unboxed
// must be Unboxed[V]() (structures compute it once at construction), and the
// cell must be new or cleared by its last Release (Init gives it one
// holder); Init must complete before the cell is reachable by others.
func (c *Cell[V]) Init(unboxed bool, v V) {
	if epoch.PoisonCheck {
		atomic.StoreInt32(&c.refs, 0) // a released cell is left at -1 in this build, see Release
	}
	if unboxed {
		c.word.Store(toWord(v))
		return
	}
	// The box is bound on the boxed-only path (not to the parameter) so
	// escape analysis keeps the unboxed path free of the heap copy.
	box := v
	atomic.StorePointer(&c.ptr, unsafe.Pointer(&box))
}

// Load returns the current value. A nil cell reads as the zero value, which
// lets tree nodes without a value (internal and sentinel nodes) share the
// leaf node layout with a nil cell pointer. A released cell must not be
// loaded: a boxed one has lost its box and would be read as a word (the
// reclaimcheck build panics instead).
func (c *Cell[V]) Load() (v V) {
	if c == nil {
		return v
	}
	if epoch.PoisonCheck && atomic.LoadInt32(&c.refs) < 0 {
		panic("vcell: cell loaded after its last release (reclaimcheck)")
	}
	if p := (*V)(atomic.LoadPointer(&c.ptr)); p != nil {
		return *p
	}
	// fromWord written out: through the call, every inlined Load keeps a nil
	// check of fromWord's dictionary (TestInliningGuard has the row).
	w := c.word.Load()
	return *(*V)(unsafe.Pointer(&w))
}

// Store atomically publishes v. In the unboxed representation it allocates
// nothing; in the boxed representation it allocates v's box.
func (c *Cell[V]) Store(v V) {
	if atomic.LoadPointer(&c.ptr) == nil {
		c.word.Store(toWord(v))
		return
	}
	box := v
	atomic.StorePointer(&c.ptr, unsafe.Pointer(&box))
}

// Gen returns how many times the cell has been cleared by its last Release
// (0 for a nil cell). It only changes under -tags reclaimcheck, where the trees'
// read paths assert that no cell is recycled under a pinned reader.
func (c *Cell[V]) Gen() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Retain registers one more node aliasing the cell: a copy of a leaf calls it
// on the source's cell. The caller must hold a node that holds the cell and
// cannot be freed meanwhile (the copier is pinned and read the source out of
// the tree), so the count cannot be passing through its last Release.
func (c *Cell[V]) Retain() {
	if n := atomic.AddInt32(&c.refs, 1); epoch.PoisonCheck && n <= 0 {
		panic("vcell: cell retained after its last release (reclaimcheck)")
	}
}

// Release drops one holder's reference and reports whether it was the last.
// A node releases its reference when its memory is freed: after its grace
// period, or at once if it was never published. Every reader reached the cell
// through such a node while pinned, so the last Release is ordered after all
// of them and clears the cell with plain stores (dropping a boxed value's box,
// so a cell kept for reuse does not keep a dead key's value alive). The caller
// of the last Release owns the cell: it may Init it again or drop it.
func (c *Cell[V]) Release() bool {
	n := atomic.AddInt32(&c.refs, -1)
	if n >= 0 {
		return false
	}
	if epoch.PoisonCheck && n < -1 {
		panic("vcell: cell released more often than it was held (reclaimcheck)")
	}
	c.word = atomic.Uint64{}
	c.ptr = nil
	c.pubs = 0
	if epoch.PoisonCheck {
		// The count stays below zero until Init, so a Load, Retain or
		// Release that reaches the cleared cell is caught.
		c.gen.Bump()
	} else {
		c.refs = 0
	}
	return true
}

// BeginPublish registers an intent to Swap a value into the cell. The
// bracket it opens (closed by EndPublish) lets a consumer that has
// finalized the leaf holding the cell wait out every writer that might
// still land a Swap, so the consumer's subsequent Load is ordered after all
// publishes that will ever be visible (see DrainPublishers). The bracket
// must be short and straight-line: register, check the leaf's finalized
// flag, Swap, unregister - nothing inside may block, park, or panic.
func (c *Cell[V]) BeginPublish() {
	atomic.AddInt32(&c.pubs, 1)
}

// EndPublish closes the bracket opened by BeginPublish.
func (c *Cell[V]) EndPublish() {
	atomic.AddInt32(&c.pubs, -1)
}

// DrainPublishers waits until no publish bracket is open. A consumer calls
// it after finalizing the leaf that holds the cell and before loading the
// displaced value: once the leaf is finalized every NEW bracket observes
// the finalized flag and backs off without swapping, so only the
// (finitely many, short) brackets already open are waited for, and the
// wait terminates. After the drain, any publish whose bracket saw the
// leaf un-finalized is totally ordered before the consumer's Load - that
// is the ordering fact that makes the in-place overwrite linearizable
// against deletion (see internal/lbst's overwrite protocol).
//
// The wait goes through sched.WaitZero so the deterministic enumeration
// build parks the consumer until the bracket holders have run, instead of
// spinning against goroutines the controller has suspended.
func (c *Cell[V]) DrainPublishers() {
	sched.WaitZero(sched.PointVCellDrain, &c.pubs)
}

// Swap atomically publishes v and returns the value the cell held
// immediately before: the atomic read-modify-write that makes an in-place
// overwrite linearizable (the returned value is exactly the one displaced,
// however many writers race). Allocation profile as Store.
func (c *Cell[V]) Swap(v V) V {
	sched.Point(sched.PointVCellPublish)
	if atomic.LoadPointer(&c.ptr) == nil {
		return fromWord[V](c.word.Swap(toWord(v)))
	}
	box := v
	return *(*V)(atomic.SwapPointer(&c.ptr, unsafe.Pointer(&box)))
}
