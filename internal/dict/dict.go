// Package dict defines the ordered-dictionary abstraction shared by every
// data structure in this repository, together with helpers used by tests and
// the benchmark harness.
//
// The interface mirrors the abstract data type of Section 5 of Brown, Ellen
// and Ruppert (PPoPP 2014): Get, Insert, Delete, Successor and Predecessor,
// with the value ⊥ represented by the boolean "ok" result. The paper's trees
// are key-type-agnostic - only the search routine compares keys - so the
// canonical interfaces are generic: Map[K, V] and OrderedMap[K, V] are
// parameterized by the key and value types. Every implementation takes
// cmp.Ordered keys and orders them by cmp.Less, which puts a NaN key before
// every other key and treats two NaNs as the same key. The historical int64
// instantiations survive as the IntMap, IntOrderedMap and IntFactory
// aliases, which the benchmark harness and the paper's figures still use.
package dict

// Map is a dictionary with totally ordered keys of type K and values of
// type V.
//
// All methods must be safe for concurrent use by multiple goroutines unless
// the concrete implementation documents otherwise (for example the purely
// sequential red-black tree in internal/seqrbt).
type Map[K, V any] interface {
	// Get returns the value associated with key and true, or the zero value
	// and false if key is not present.
	Get(key K) (value V, ok bool)
	// Insert associates value with key. It returns the previously associated
	// value and true if key was present, or the zero value and false if it
	// was not.
	Insert(key K, value V) (old V, existed bool)
	// Delete removes key. It returns the value that was associated with key
	// and true, or the zero value and false if key was not present.
	Delete(key K) (old V, existed bool)
}

// OrderedMap additionally supports ordered traversal queries.
type OrderedMap[K, V any] interface {
	Map[K, V]
	// Successor returns the smallest key strictly greater than key, with its
	// value. ok is false if no such key exists.
	Successor(key K) (k K, v V, ok bool)
	// Predecessor returns the largest key strictly smaller than key, with its
	// value. ok is false if no such key exists.
	Predecessor(key K) (k K, v V, ok bool)
}

// Ranger is implemented by dictionaries with a native range scan. RangeScan
// calls fn for every key in [lo, hi] in ascending order and returns the
// number of keys visited; if fn returns false the scan stops early. The scan
// need not be atomic as a whole, but every visited key must have been
// present at some point during the scan. The LLX/SCX trees give more: each
// run of up to 64 consecutive visited keys is exactly the range's content at
// one instant, so a window of at most 64 keys is normally seen atomically
// (a scan that had to retry under contention may split it); whole-scan
// atomicity and repeated reads of one cut are what Snapshotter is for. The
// workload generator's scan operations use RangeScan when available and fall
// back to repeated Successor queries otherwise.
type Ranger[K, V any] interface {
	RangeScan(lo, hi K, fn func(k K, v V) bool) int
}

// Factory constructs empty dictionary instances of one implementation. The
// benchmark harness uses factories so that every trial starts from a fresh
// structure.
type Factory[K, V any] struct {
	// Name identifies the data structure in reports (e.g. "Chromatic6").
	Name string
	// New creates an empty dictionary.
	New func() Map[K, V]
}

// IntMap is the historical int64-keyed instantiation of Map used by the
// benchmark registry, the workload generator and the paper's figures.
type IntMap = Map[int64, int64]

// IntOrderedMap is the int64-keyed instantiation of OrderedMap.
type IntOrderedMap = OrderedMap[int64, int64]

// IntFactory is the int64-keyed instantiation of Factory.
type IntFactory = Factory[int64, int64]

// IntRanger is the int64-keyed instantiation of Ranger.
type IntRanger = Ranger[int64, int64]

// SnapshotView is a read-only, point-in-time view of a dictionary returned
// by a Snapshotter (the LLX/SCX trees). The view is frozen: every operation
// observes exactly the state at the capture's linearization point, never
// blocks, never retries, and performs no per-node validation; the view stays
// valid under arbitrary concurrent
// updates to the source dictionary until Release is called. Holding a view
// pins memory reclamation for the nodes it can reach, so views should be
// released promptly. Release must be called exactly once; using a view after
// Release is undefined.
type SnapshotView[K, V any] interface {
	// Get returns the value associated with key in the snapshot.
	Get(key K) (value V, ok bool)
	// RangeScan calls fn for every key in [lo, hi] in ascending order and
	// returns the number of keys visited; if fn returns false the scan stops
	// early.
	RangeScan(lo, hi K, fn func(k K, v V) bool) int
	// Ascend calls fn for every key in ascending order and returns the number
	// of keys visited; if fn returns false the scan stops early.
	Ascend(fn func(k K, v V) bool) int
	// Version is the capture's position on the dictionary's version clock:
	// snapshots of the same dictionary are ordered by it.
	Version() uint64
	// Release ends the view's lifetime and unpins memory reclamation.
	Release()
}

// Snapshotter is implemented by dictionaries with O(1) versioned snapshots.
type Snapshotter[K, V any] interface {
	// Snapshot captures the current state and returns its view in O(1),
	// allocation-lean regardless of the dictionary's size.
	Snapshot() SnapshotView[K, V]
}

// IntSnapshotter is the int64-keyed instantiation of Snapshotter.
type IntSnapshotter = Snapshotter[int64, int64]

// IntSnapshotView is the int64-keyed instantiation of SnapshotView.
type IntSnapshotView = SnapshotView[int64, int64]

// Sized is implemented by dictionaries that can report the number of keys
// they currently store. Size may run in linear time and need not be
// linearizable; it is intended for tests and prefilling.
type Sized interface {
	Size() int
}

// Named is implemented by dictionaries that expose a human-readable name for
// benchmark reports.
type Named interface {
	Name() string
}
