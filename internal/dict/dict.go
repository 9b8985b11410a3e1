// Package dict defines the ordered-dictionary abstraction shared by every
// data structure in this repository, together with helpers used by tests and
// the benchmark harness.
//
// The interface mirrors the abstract data type of Section 5 of Brown, Ellen
// and Ruppert (PPoPP 2014): Get, Insert, Delete, Successor and Predecessor,
// with the value ⊥ represented by the boolean "ok" result. The paper's trees
// are key-type-agnostic - only the search routine compares keys - so the
// canonical interfaces are generic: Map[K, V] and OrderedMap[K, V] are
// parameterized by the key and value types, and implementations order keys
// with a caller-supplied comparator of type Less[K] (constructors for
// cmp.Ordered key types install the natural `<` ordering). The historical
// int64 instantiations survive as the IntMap, IntOrderedMap and IntFactory
// aliases, which the benchmark harness and the paper's figures still use.
package dict

import "cmp"

// Less is the key comparator contract: it reports whether a is strictly
// ordered before b. It must define a strict weak ordering (irreflexive,
// transitive, with transitive incomparability); two keys a and b are
// considered equal exactly when !Less(a, b) && !Less(b, a). Comparators must
// be pure and safe for concurrent use: the trees call them from many
// goroutines with no synchronization.
type Less[K any] func(a, b K) bool

// Ordered returns the natural `<` comparator for any cmp.Ordered key type.
// It is a convenience for callers that need an explicit Less value (for
// example to store alongside other configuration, or to hand to a tree's
// NewLess constructor); the trees' NewOrdered constructors install the same
// ordering themselves.
func Ordered[K cmp.Ordered]() Less[K] {
	return func(a, b K) bool { return a < b }
}

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
// by a Snapshotter. On native implementations (the LLX/SCX trees) the view is
// frozen: every operation observes exactly the state at the capture's
// linearization point, never blocks, never retries, and performs no
// per-node validation; the view stays valid under arbitrary concurrent
// updates to the source dictionary until Release is called. Holding a view
// pins memory reclamation for the nodes it can reach, so views should be
// released promptly. Release must be called exactly once; using a view after
// Release is undefined.
//
// The fallback adapter (AdaptSnapshot) satisfies the same interface with a
// weakly consistent live view, for implementations without native snapshots;
// Consistent reports which semantics a view provides.
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
	// snapshots of the same dictionary are ordered by it. Adapter views
	// report 0.
	Version() uint64
	// Consistent reports whether the view is frozen (true) or a weakly
	// consistent live fallback (false).
	Consistent() bool
	// Release ends the view's lifetime and unpins memory reclamation.
	Release()
}

// Snapshotter is implemented by dictionaries with O(1) versioned snapshots.
type Snapshotter[K, V any] interface {
	// Snapshot captures the current state and returns its view. On native
	// implementations it is O(1) and allocation-lean regardless of the
	// dictionary's size.
	Snapshot() SnapshotView[K, V]
}

// IntSnapshotter is the int64-keyed instantiation of Snapshotter.
type IntSnapshotter = Snapshotter[int64, int64]

// IntSnapshotView is the int64-keyed instantiation of SnapshotView.
type IntSnapshotView = SnapshotView[int64, int64]

// Differ is optionally implemented by SnapshotView values that can compute a
// structural diff against another view of the same dictionary. Diff reports
// false (and emits nothing) when other is not a compatible view, in which
// case the caller falls back to a merge of two scans (see SnapshotDiff).
type Differ[K, V any] interface {
	Diff(other SnapshotView[K, V], eq func(a, b V) bool, fn func(key K, oldV V, oldOK bool, newV V, newOK bool) bool) bool
}

// SnapshotDiff calls fn for every key whose presence or value differs between
// the two views, in ascending key order: oldOK/newOK report presence in each
// view and eq decides value equality for keys present in both. If fn returns
// false the diff stops early. When old implements Differ (both views come
// from the same native tree) the diff walks the two versions' shared
// structure and skips unchanged regions cheaply; otherwise it merges two full
// scans, materializing the old view's contents.
//
// For the structural fast path to be exact the old view must have been
// captured before new and held live continuously since (the usual case:
// diffing two snapshots the caller holds). A view released and re-taken in
// between may share leaves whose values were overwritten in place while no
// snapshot was live; only the merge fallback detects those.
func SnapshotDiff[K, V any](less Less[K], eq func(a, b V) bool, old, new SnapshotView[K, V], fn func(key K, oldV V, oldOK bool, newV V, newOK bool) bool) {
	if d, ok := old.(Differ[K, V]); ok && d.Diff(new, eq, fn) {
		return
	}
	type kv struct {
		k K
		v V
	}
	var olds []kv
	var zero V
	old.Ascend(func(k K, v V) bool {
		olds = append(olds, kv{k, v})
		return true
	})
	i, stopped := 0, false
	new.Ascend(func(k K, v V) bool {
		for i < len(olds) && less(olds[i].k, k) {
			if !fn(olds[i].k, olds[i].v, true, zero, false) {
				stopped = true
				return false
			}
			i++
		}
		if i < len(olds) && !less(k, olds[i].k) {
			ov := olds[i].v
			i++
			if !eq(ov, v) {
				if !fn(k, ov, true, v, true) {
					stopped = true
					return false
				}
			}
			return true
		}
		if !fn(k, zero, false, v, true) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for ; i < len(olds); i++ {
		if !fn(olds[i].k, olds[i].v, true, zero, false) {
			return
		}
	}
}

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
