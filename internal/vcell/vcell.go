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
//     (strings, structs, pointers to caller-owned state, ...).
//
// The representation is selected by the data structure's constructor: a
// structure computes Unboxed[V]() once and passes it to Init for every cell
// it creates, so the per-access cost of the choice is a single predictable
// branch rather than a type assertion or an indirect call.
//
// Cells may be shared: the template trees alias one cell between a leaf and
// every copy of that leaf made by rebalancing or deletion, which is what
// makes the SCX-free overwrite safe (see the package comment of
// internal/lbst and the in-place overwrite section of DESIGN.md). The trees
// draw their cells from a Pool; a cell counts the nodes that alias it (Retain,
// Pool.Release) and returns to the pool when the last of them is freed.
package vcell

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/sched"
)

// Cell is an atomically publishable value slot. The zero Cell is not ready
// for use: call Init (or create cells with New) before the cell is shared,
// so the representation flag is fixed before any concurrent access.
type Cell[V any] struct {
	// unboxed selects the representation. It is written once by Init, before
	// the cell is published, and never changes.
	unboxed bool
	// refs counts the nodes aliasing the cell beyond the first, in bytes that
	// would otherwise pad unboxed: zero is one holder, Retain adds one, and the
	// Release that takes it below zero was the last. Unpooled cells ignore it.
	refs atomic.Int32
	gen  epoch.Gen // trips through a Pool; zero-size unless -tags reclaimcheck

	word atomic.Uint64
	ptr  atomic.Pointer[V]

	// pubs counts in-flight publish brackets (BeginPublish..EndPublish). It
	// lives on the cell - not on any node embedding it - because copies alias
	// the cell: a consumer that finalized one leaf must drain publishers that
	// entered through ANY aliasing leaf, however stale. See the overwrite
	// protocol in internal/lbst.
	pubs atomic.Int64
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
// when Unboxed[V]() is true (sizeof(V) <= 8 and V is pointer-free); the
// boxed representation never calls it.
func toWord[V any](v V) uint64 {
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
// the garbage collector (the template trees draw theirs from a Pool);
// structures that embed cells in their nodes use Init with a
// constructor-computed flag instead.
func New[V any](v V) *Cell[V] {
	c := &Cell[V]{}
	c.Init(Unboxed[V](), v)
	return c
}

// Init fixes the cell's representation and stores the initial value. unboxed
// must be Unboxed[V]() (structures compute it once at construction); Init
// must complete before the cell becomes reachable by other goroutines.
func (c *Cell[V]) Init(unboxed bool, v V) {
	c.unboxed = unboxed
	if unboxed {
		c.word.Store(toWord(v))
		return
	}
	// The box is bound on the boxed-only path (not to the parameter) so
	// escape analysis keeps the unboxed path free of the heap copy.
	box := v
	c.ptr.Store(&box)
}

// Load returns the current value. A nil cell reads as the zero value, which
// lets tree nodes without a value (internal and sentinel nodes) share the
// leaf node layout with a nil cell pointer.
func (c *Cell[V]) Load() V {
	if c == nil {
		var zero V
		return zero
	}
	if epoch.PoisonCheck && c.refs.Load() < 0 {
		panic("vcell: cell loaded after its last release (reclaimcheck)")
	}
	if c.unboxed {
		return fromWord[V](c.word.Load())
	}
	return *c.ptr.Load()
}

// Store atomically publishes v. In the unboxed representation it allocates
// nothing; in the boxed representation it allocates v's box.
func (c *Cell[V]) Store(v V) {
	if c.unboxed {
		c.word.Store(toWord(v))
		return
	}
	box := v
	c.ptr.Store(&box)
}

// Gen returns how many times the cell has been recycled through a Pool (0
// for a nil cell). It only changes under -tags reclaimcheck, where the trees'
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
	if n := c.refs.Add(1); epoch.PoisonCheck && n <= 0 {
		panic("vcell: cell retained after its last release (reclaimcheck)")
	}
}

// Pool recycles the cells of one data structure. It is its own heap object
// (NewPool) because a sync.Pool that has ever been used stays registered with
// the runtime, and one embedded in a tree would keep the tree reachable.
type Pool[V any] struct {
	cells   sync.Pool
	unboxed bool
}

// NewPool returns an empty pool of cells for values of type V.
func NewPool[V any]() *Pool[V] {
	return &Pool[V]{
		cells:   sync.Pool{New: func() any { return new(Cell[V]) }},
		unboxed: Unboxed[V](),
	}
}

// Get returns a cell holding v, with one holder.
func (p *Pool[V]) Get(v V) *Cell[V] {
	c := p.cells.Get().(*Cell[V])
	if epoch.PoisonCheck {
		c.refs.Store(0) // a pooled cell is left at -1 in this build, see Release
	}
	c.Init(p.unboxed, v)
	return c
}

// Release drops one holder's reference; the last one returns the cell to the
// pool. A node releases its reference when its memory is freed: after its
// grace period, or at once if it was never published. Every reader reached
// the cell through such a node while pinned, so the last Release is ordered
// after all of them and clears the cell with plain stores (dropping a boxed
// value's box, so a pooled cell does not keep a dead key's value alive).
func (p *Pool[V]) Release(c *Cell[V]) {
	n := c.refs.Add(-1)
	if n >= 0 {
		return
	}
	if epoch.PoisonCheck && n < -1 {
		panic("vcell: cell released more often than it was held (reclaimcheck)")
	}
	c.word = atomic.Uint64{}
	c.ptr = atomic.Pointer[V]{}
	c.pubs = atomic.Int64{}
	if epoch.PoisonCheck {
		// The count stays below zero while the cell is pooled, so a Load,
		// Retain or Release that reaches it there is caught.
		c.gen.Bump()
	} else {
		c.refs = atomic.Int32{}
	}
	p.cells.Put(c)
}

// BeginPublish registers an intent to Swap a value into the cell. The
// bracket it opens (closed by EndPublish) lets a consumer that has
// finalized the leaf holding the cell wait out every writer that might
// still land a Swap, so the consumer's subsequent Load is ordered after all
// publishes that will ever be visible (see DrainPublishers). The bracket
// must be short and straight-line: register, check the leaf's finalized
// flag, Swap, unregister - nothing inside may block, park, or panic.
func (c *Cell[V]) BeginPublish() {
	c.pubs.Add(1)
}

// EndPublish closes the bracket opened by BeginPublish.
func (c *Cell[V]) EndPublish() {
	c.pubs.Add(-1)
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
	if c.unboxed {
		return fromWord[V](c.word.Swap(toWord(v)))
	}
	box := v
	return *c.ptr.Swap(&box)
}
