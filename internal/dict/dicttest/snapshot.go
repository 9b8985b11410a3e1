package dicttest

import (
	"cmp"
	"sync"
	"testing"

	"repro/internal/dict"
)

// SnapshotSuiteKV is the conformance suite for dict.Snapshotter
// implementations. It skips (not fails) when the target does not implement
// Snapshotter.
//
// Three properties are exercised:
//
//  1. Frozen views never observe post-snapshot updates: a snapshot taken
//     between two heavy mutation rounds (inserts, deletes and in-place
//     overwrites, the last being the path a snapshot must disable) must keep
//     reporting exactly the pre-mutation model through Get, Ascend and
//     RangeScan, no matter how often it is re-read.
//  2. Snapshots are consistent cuts under concurrent churn: each writer
//     inserts its keys in a fixed order and then deletes them in that order,
//     so any consistent cut shows a contiguous run of each writer's keys;
//     a gap proves the view mixed states. Overwrite frozenness is checked by
//     re-reading a captured key while a writer keeps overwriting it.
//  3. A held snapshot keeps every node it can reach from being recycled
//     under heavy churn, and releasing it lets them recycle.
func SnapshotSuiteKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V) {
	t.Helper()
	if _, ok := tgt.New().(dict.Snapshotter[K, V]); !ok {
		t.Skipf("%s does not implement dict.Snapshotter", tgt.Name)
	}
	t.Run("Frozen", func(t *testing.T) { snapshotFrozen(t, tgt, key, val) })
	t.Run("ConsistentCut", func(t *testing.T) { snapshotConsistentCut(t, tgt, key, val) })
	t.Run("HoldChurnStress", func(t *testing.T) { snapshotHoldChurn(t, tgt, key, val) })
}

// snapshotHoldChurn is the reclamation side of the snapshot contract: while
// a snapshot is held, every node it can reach must stay pending when
// retired, never recycled - so a frozen walk stays bit-exact no matter how hard
// concurrent churn recycles the live tree's memory. Under -tags reclaimcheck
// the trees poison recycled nodes with generation counters, which turns "a
// reachable node was recycled under the snapshot" from a probabilistic
// wrong-value signal into a deterministic panic; under -race the same walk
// catches the recycle as a data race. After the churn quiesces, draining
// reclamation with the snapshot still held must leave retirees pending, and
// releasing the snapshot must let them recycle.
func snapshotHoldChurn[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V) {
	t.Helper()
	d := tgt.New()
	sn := d.(dict.Snapshotter[K, V])
	md := newModel[K, V]()
	const window = 512
	for i := 0; i < window; i++ {
		k := key(uint64(i))
		v := val(uint64(i))
		d.Insert(k, v)
		md.insert(k, v)
	}
	snap := sn.Snapshot()
	defer snap.Release()

	// Writers churn the captured window flat out: every delete retires the
	// key's leaf (and internal nodes around it), all of which the snapshot
	// still reaches.
	const writers = 4
	const opsPerWriter = 15000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
			for i := 0; i < opsPerWriter; i++ {
				k := key(lcg(&state) % window)
				if lcg(&state)&1 == 0 {
					d.Delete(k)
				} else {
					d.Insert(k, val(lcg(&state)))
				}
			}
		}(w)
	}
	// Meanwhile, walk the held snapshot end to end, repeatedly: every key,
	// every value, exactly as captured.
	churnDone := make(chan struct{})
	go func() { wg.Wait(); close(churnDone) }()
	for {
		viewEqualsModel(t, tgt.Name, snap, md)
		select {
		case <-churnDone:
		default:
			continue
		}
		break
	}
	// One more full pass at quiescence.
	viewEqualsModel(t, tgt.Name, snap, md)

	// With the snapshot still held, draining reclamation must leave the
	// retirees it covers pending instead of recycling them...
	if dr, ok := d.(interface{ DrainReclaim() int64 }); ok {
		dr.DrainReclaim()
		if p := dr.DrainReclaim(); p == 0 {
			t.Errorf("%s: nothing pending while a snapshot covering heavy churn was held", tgt.Name)
		}
		// ...and releasing it must let them through: the first drain after
		// the release frees them all.
		snap.Release()
		if p := dr.DrainReclaim(); p != 0 {
			t.Errorf("%s: %d retirees still pending after the snapshot released", tgt.Name, p)
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// viewEqualsModel checks that the view reports exactly the model's contents
// through Get, Ascend and a full-range RangeScan.
func viewEqualsModel[K cmp.Ordered, V comparable](t *testing.T, name string, view dict.SnapshotView[K, V], md *model[K, V]) {
	t.Helper()
	for _, k := range md.sortedKeys() {
		want := md.m[k]
		if got, ok := view.Get(k); !ok || got != want {
			t.Fatalf("%s: snapshot Get(%v) = (%v,%v), want (%v,true)", name, k, got, ok, want)
		}
	}
	wantKeys := md.sortedKeys()
	i := 0
	n := view.Ascend(func(k K, v V) bool {
		if i >= len(wantKeys) {
			t.Fatalf("%s: snapshot Ascend yielded extra key %v", name, k)
		}
		if k != wantKeys[i] || v != md.m[k] {
			t.Fatalf("%s: snapshot Ascend[%d] = (%v,%v), want (%v,%v)", name, i, k, v, wantKeys[i], md.m[wantKeys[i]])
		}
		i++
		return true
	})
	if n != len(wantKeys) || i != len(wantKeys) {
		t.Fatalf("%s: snapshot Ascend visited %d keys, want %d", name, n, len(wantKeys))
	}
	if len(wantKeys) > 0 {
		lo, hi := wantKeys[0], wantKeys[len(wantKeys)-1]
		i = 0
		view.RangeScan(lo, hi, func(k K, v V) bool {
			if i >= len(wantKeys) || k != wantKeys[i] {
				t.Fatalf("%s: snapshot RangeScan diverged at index %d (got key %v)", name, i, k)
			}
			i++
			return true
		})
		if i != len(wantKeys) {
			t.Fatalf("%s: snapshot RangeScan visited %d keys, want %d", name, i, len(wantKeys))
		}
	}
}

func snapshotFrozen[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V) {
	t.Helper()
	d := tgt.New()
	sn := d.(dict.Snapshotter[K, V])
	md := newModel[K, V]()
	state := uint64(0x5eed)
	for i := 0; i < 2000; i++ {
		k := key(lcg(&state))
		v := val(lcg(&state))
		d.Insert(k, v)
		md.insert(k, v)
	}
	snap := sn.Snapshot()
	defer snap.Release()
	// Mutate hard: overwrite every captured key (exercising the disabled
	// in-place fast path), delete half of them, and insert fresh keys.
	for i, k := range md.sortedKeys() {
		if i%2 == 0 {
			d.Insert(k, val(lcg(&state)))
		} else {
			d.Delete(k)
		}
	}
	for i := 0; i < 2000; i++ {
		d.Insert(key(lcg(&state)), val(lcg(&state)))
	}
	// Re-read the frozen view several times: it must keep answering with the
	// pre-mutation model, bit for bit.
	for round := 0; round < 3; round++ {
		viewEqualsModel(t, tgt.Name, snap, md)
	}
	// A snapshot taken now sees the mutated state, not the frozen one.
	after := sn.Snapshot()
	defer after.Release()
	if after.Version() <= snap.Version() {
		t.Fatalf("%s: later snapshot version %d not greater than %d", tgt.Name, after.Version(), snap.Version())
	}
}

func snapshotConsistentCut[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V) {
	t.Helper()
	d := tgt.New()
	sn := d.(dict.Snapshotter[K, V])
	const writers = 4
	const keysPerWriter = 256
	// Writer g owns keys key(g*keysPerWriter + i); it inserts them in order
	// i = 0..keysPerWriter-1, then deletes them in the same order. Any
	// consistent cut therefore shows writer g holding exactly the contiguous
	// run [deleted_g, inserted_g).
	keyOf := func(g, i int) K { return key(uint64(g*keysPerWriter + i)) }
	// The hot key is overwritten continuously; a frozen view must pin one
	// published value for it. Values are derived from a reserved selector
	// range so they never collide with writer values.
	hot := key(uint64(writers*keysPerWriter + 1))
	d.Insert(hot, val(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keysPerWriter; i++ {
				d.Insert(keyOf(g, i), val(uint64(i)))
			}
			for i := 0; i < keysPerWriter; i++ {
				d.Delete(keyOf(g, i))
			}
		}(g)
	}
	// The overwriter publishes a BOUNDED number of values: a frozen view's
	// read of the hot key walks the version chain the overwrites build behind
	// it, so an unbounded overwriter racing a held snapshot makes each probe
	// walk an ever-longer chain (the standard MVCC hold-snapshots-briefly
	// caveat) and the test never finishes under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Insert(hot, val(i))
		}
	}()

	for round := 0; round < 50; round++ {
		snap := sn.Snapshot()
		// Contiguity: for each writer, the set of its keys present in the
		// snapshot must be one contiguous run of the insertion order.
		for g := 0; g < writers; g++ {
			present := make([]bool, keysPerWriter)
			for i := 0; i < keysPerWriter; i++ {
				_, present[i] = snap.Get(keyOf(g, i))
			}
			first, last := -1, -1
			for i, p := range present {
				if p {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			for i := first; first >= 0 && i <= last; i++ {
				if !present[i] {
					t.Fatalf("%s: snapshot is not a consistent cut: writer %d key %d absent inside present run [%d,%d]", tgt.Name, g, i, first, last)
				}
			}
		}
		// Overwrite frozenness: the hot key's captured value must not move
		// while the overwriter keeps publishing new ones.
		v0, ok0 := snap.Get(hot)
		for probe := 0; probe < 20; probe++ {
			if v, ok := snap.Get(hot); ok != ok0 || v != v0 {
				t.Fatalf("%s: frozen view's hot key moved: (%v,%v) then (%v,%v)", tgt.Name, v0, ok0, v, ok)
			}
		}
		snap.Release()
	}
	close(stop)
	wg.Wait()
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// SnapshotSuite is the int64 wrapper around SnapshotSuiteKV with keys drawn
// from a moderate range (dense enough to exercise overwrites) and distinct
// values.
func SnapshotSuite(t *testing.T, tgt Target) {
	t.Helper()
	SnapshotSuiteKV(t, tgt.generic(),
		func(u uint64) int64 { return int64(u % (1 << 14)) },
		func(u uint64) int64 { return int64(u) })
}
