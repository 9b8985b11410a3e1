package dict

// AdaptSnapshot wraps any ordered dictionary into a Snapshotter whose views
// are weakly consistent LIVE views, not frozen captures: each view operation
// reads the current state of m, so a scan may observe some concurrent updates
// and miss others (every visited key was present at some point during the
// scan, exactly the Ranger contract). It exists so harness code can drive the
// snapshot-scan workload mode uniformly across structures without native
// snapshots; Consistent reports false so callers can tell the two apart.
// Views are free: capture allocates one handle, Release is a no-op, and no
// memory is pinned.
func AdaptSnapshot[K, V any](m OrderedMap[K, V], less Less[K]) Snapshotter[K, V] {
	return &snapAdapter[K, V]{m: m, less: less}
}

type snapAdapter[K, V any] struct {
	m    OrderedMap[K, V]
	less Less[K]
}

func (a *snapAdapter[K, V]) Snapshot() SnapshotView[K, V] {
	return &adapterView[K, V]{m: a.m, less: a.less}
}

type adapterView[K, V any] struct {
	m    OrderedMap[K, V]
	less Less[K]
}

func (v *adapterView[K, V]) Get(key K) (V, bool) { return v.m.Get(key) }

func (v *adapterView[K, V]) RangeScan(lo, hi K, fn func(k K, val V) bool) int {
	if r, ok := v.m.(Ranger[K, V]); ok {
		return r.RangeScan(lo, hi, fn)
	}
	// Successor walk: check lo itself (Successor is strict), then advance.
	// An empty range holds nothing, lo included.
	n := 0
	if v.less(hi, lo) {
		return 0
	}
	if val, ok := v.m.Get(lo); ok {
		n++
		if !fn(lo, val) {
			return n
		}
	}
	for k := lo; ; {
		nk, nv, ok := v.m.Successor(k)
		if !ok || v.less(hi, nk) {
			return n
		}
		n++
		if !fn(nk, nv) {
			return n
		}
		k = nk
	}
}

func (v *adapterView[K, V]) Ascend(fn func(k K, val V) bool) int {
	// Find an anchor for the Successor walk: a native Min if the structure
	// has one, otherwise the smallest of a Keys() sweep (every structure in
	// the repository provides one of the two). The walk itself re-reads the
	// live structure, so the anchor only needs to be at-or-below the current
	// minimum, which a momentarily stale Min/Keys result still is.
	var k K
	var val V
	var ok bool
	switch m := v.m.(type) {
	case interface{ Min() (K, V, bool) }:
		k, val, ok = m.Min()
	case interface{ Keys() []K }:
		keys := m.Keys()
		if len(keys) > 0 {
			k = keys[0]
			val, ok = v.m.Get(k)
			if !ok {
				// Anchor deleted since the sweep: step forward from it.
				k, val, ok = v.m.Successor(k)
			}
		}
	}
	if !ok {
		return 0
	}
	n := 1
	if !fn(k, val) {
		return n
	}
	for {
		nk, nv, ok := v.m.Successor(k)
		if !ok {
			return n
		}
		n++
		if !fn(nk, nv) {
			return n
		}
		k = nk
	}
}

func (v *adapterView[K, V]) Version() uint64  { return 0 }
func (v *adapterView[K, V]) Consistent() bool { return false }
func (v *adapterView[K, V]) Release()         {}
