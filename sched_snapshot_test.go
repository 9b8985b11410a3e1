//go:build sched

package repro

// Deterministic schedule enumeration for the snapshot capture protocol
// (internal/lbst/snapshot.go): every interleaving of snapshot-publish
// (PointSnapPublish), the SCX commit sequence (freeze/update/commit) and the
// version stamp that orders them (PointVerStamp) is replayed under the
// cooperative controller, and every schedule must yield snapshots that are
// consistent cuts — each equal to one of the states the writer's sequential
// history passes through, frozen under later mutation, and monotone between
// two captures by the same goroutine.
//
// These enumerations are what forced the capture protocol into its current
// shape: with the version read BEFORE the publish-window drain and the
// stamp→install window bracketed by the commit hooks, every interleaving
// below is a clean cut. The first version of the protocol (drain first,
// read gver second, no stamp bracket) failed TestSnapshotCutEnumeration:
// an SCX could stamp its node at or below the captured version yet install
// it after the capture's first read, so the "frozen" view changed answers.
// The capture's drain runs under sched.WaitZero, so a schedule that parks a
// writer inside its fastWriters bracket simply makes the capture
// wait-blocked until the controller has run the writer past the bracket —
// which is also what lets the fast-path value publish (PointVCellRecheck)
// be enumerated directly (see TestSnapshotFastPathPublishEnumeration).

import (
	"fmt"
	"testing"

	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/sched"
)

// snapObs is one full read of a snapshot view over the four keys the window
// touches; comparable so frozenness is one struct equality.
type snapObs struct {
	val [4]int64
	ok  [4]bool
}

func observeSnap(v dict.SnapshotView[int64, int64]) snapObs {
	var o snapObs
	for i, k := range [...]int64{10, 15, 20, 30} {
		o.val[i], o.ok[i] = v.Get(k)
	}
	return o
}

// TestSnapshotCutEnumeration runs one writer through insert(15), delete(10),
// overwrite(20) — three distinguishable state transitions — against a
// goroutine that captures two snapshots back to back, and enumerates every
// interleaving at snapshot-publish / version-stamp / SCX granularity. In
// every schedule each capture must equal one of the four sequential states
// S0..S3 (anything else is a torn cut), must answer identically after the
// window quiesces (frozen), and the second capture's cut index and version
// must not precede the first's (monotone capture).
func TestSnapshotCutEnumeration(t *testing.T) {
	// The sequential states of the writer's history over (10, 15, 20, 30).
	states := [4]snapObs{
		{val: [4]int64{-10, 0, -20, -30}, ok: [4]bool{true, false, true, true}},  // S0
		{val: [4]int64{-10, 5, -20, -30}, ok: [4]bool{true, true, true, true}},   // S1: +15
		{val: [4]int64{0, 5, -20, -30}, ok: [4]bool{false, true, true, true}},    // S2: -10
		{val: [4]int64{0, 5, 99, -30}, ok: [4]bool{false, true, true, true}},     // S3: 20→99
	}
	cutIndex := func(o snapObs) int {
		for i, s := range states {
			if o == s {
				return i
			}
		}
		return -1
	}

	const cap = 50000
	schedules, violations := sched.Explore(sched.Options{
		Points: pointSet(
			sched.PointSCXFreeze, sched.PointSCXUpdate, sched.PointSCXCommit,
			sched.PointVerStamp, sched.PointSnapPublish,
		),
		MaxSchedules: cap,
	}, func(c *sched.Controller) error {
		tree := ebst.NewOrdered[int64, int64]()
		tree.Insert(10, -10)
		tree.Insert(20, -20)
		tree.Insert(30, -30)

		var snap1, snap2 dict.SnapshotView[int64, int64]
		var first1, first2 snapObs
		c.Go("writer", func() {
			tree.Insert(15, 5)
			tree.Delete(10)
			tree.Insert(20, 99)
		})
		c.Go("snapshot", func() {
			snap1 = tree.Snapshot()
			first1 = observeSnap(snap1)
			snap2 = tree.Snapshot()
			first2 = observeSnap(snap2)
		})
		if err := c.Run(); err != nil {
			return err
		}
		defer snap1.Release()
		defer snap2.Release()

		// Each capture is a consistent cut of the writer's history.
		i1, i2 := cutIndex(first1), cutIndex(first2)
		if i1 < 0 {
			return fmt.Errorf("first snapshot observed a torn cut: %+v", first1)
		}
		if i2 < 0 {
			return fmt.Errorf("second snapshot observed a torn cut: %+v", first2)
		}
		// Captures by one goroutine are monotone, in cut and in version.
		if i2 < i1 {
			return fmt.Errorf("later snapshot went backwards: cut S%d then S%d", i1, i2)
		}
		if snap2.Version() < snap1.Version() {
			return fmt.Errorf("later snapshot version %d < earlier %d", snap2.Version(), snap1.Version())
		}
		// Frozen: with the window fully quiesced (live state is S3), both
		// views still answer exactly their capture.
		if again := observeSnap(snap1); again != first1 {
			return fmt.Errorf("first snapshot moved after quiescence: %+v then %+v", first1, again)
		}
		if again := observeSnap(snap2); again != first2 {
			return fmt.Errorf("second snapshot moved after quiescence: %+v then %+v", first2, again)
		}
		if !snap1.Consistent() || !snap2.Consistent() {
			return fmt.Errorf("capture did not report a consistent view")
		}
		return nil
	})
	if len(violations) > 0 {
		t.Fatalf("%d of %d schedules broke the snapshot contract; first:\nschedule %v\n%v",
			len(violations), schedules, violations[0].Schedule, violations[0].Err)
	}
	if schedules >= cap {
		t.Fatalf("enumeration hit the %d-schedule cap: not exhaustive", cap)
	}
	// The writer contributes at least 13 admitted points (insert 5, delete 7,
	// overwrite ≥ 1) and the capture goroutine 2, so a complete enumeration
	// cannot be smaller than the placements of 2 capture points among 14
	// writer segments: C(15, 2) = 105.
	if schedules < 105 {
		t.Fatalf("explored %d schedules, want at least 105 (the retry-free interleaving count)", schedules)
	}
	t.Logf("%d schedules, every capture a frozen consistent cut", schedules)
}

// TestSnapshotOverwritePublishEnumeration closes the remaining seam: the
// version stamp of the leaf-replacement SCX that an overwrite degrades to
// while a snapshot is live, against the capture's own publish. A snapshot
// captured before the replacement's update CAS must pin the old value of the
// hot key forever; one captured after must pin the new one; no schedule may
// show the capture tearing between them or observing an unstamped node.
func TestSnapshotOverwritePublishEnumeration(t *testing.T) {
	const cap = 50000
	schedules, violations := sched.Explore(sched.Options{
		Points: pointSet(
			sched.PointSCXUpdate, sched.PointSCXCommit,
			sched.PointVerStamp, sched.PointSnapPublish,
		),
		MaxSchedules: cap,
	}, func(c *sched.Controller) error {
		tree := ebst.NewOrdered[int64, int64]()
		tree.Insert(10, -10)
		tree.Insert(20, -20)
		tree.Insert(30, -30)

		// A pre-existing snapshot keeps snapLive nonzero for the whole window,
		// so the writer's overwrite takes the leaf-replacement SCX path (the
		// fast path's spin-bracket never opens — see the package comment).
		hold := tree.Snapshot()
		defer hold.Release()

		var snap dict.SnapshotView[int64, int64]
		var first snapObs
		c.Go("overwrite", func() { tree.Insert(20, 99) })
		c.Go("snapshot", func() {
			snap = tree.Snapshot()
			first = observeSnap(snap)
		})
		if err := c.Run(); err != nil {
			return err
		}
		defer snap.Release()

		if v, ok := first.val[2], first.ok[2]; !ok || (v != -20 && v != 99) {
			return fmt.Errorf("capture saw hot key as (%d, %t): neither the old nor the new published value", v, ok)
		}
		if again := observeSnap(snap); again != first {
			return fmt.Errorf("snapshot moved after the overwrite quiesced: %+v then %+v", first, again)
		}
		if v, _ := tree.Get(20); v != 99 {
			return fmt.Errorf("live tree lost the overwrite: Get(20) = %d", v)
		}
		return nil
	})
	if len(violations) > 0 {
		t.Fatalf("%d of %d schedules broke the overwrite/capture ordering; first:\nschedule %v\n%v",
			len(violations), schedules, violations[0].Schedule, violations[0].Err)
	}
	if schedules >= cap {
		t.Fatalf("enumeration hit the %d-schedule cap: not exhaustive", cap)
	}
	t.Logf("%d schedules, capture pins exactly one published value", schedules)
}

// TestSnapshotFastPathPublishEnumeration enumerates the seam the previous
// test holds shut: the in-place value publish of the overwrite fast path
// (bracketed by fastWriters) against the capture's snapLive rise, version
// read and drain. Whichever way the race lands, the overwrite must either
// complete its Swap before the capture's drain observes zero — in which case
// the snapshot pins the NEW value — or fall to the leaf-replacement SCX,
// whose stamped leaf resolves to the old or new value by tick; a schedule
// where the capture first answers the old value and later the new one would
// mean a Swap landed inside a supposedly frozen view.
func TestSnapshotFastPathPublishEnumeration(t *testing.T) {
	const cap = 50000
	schedules, violations := sched.Explore(sched.Options{
		Points: pointSet(
			sched.PointVCellRecheck, sched.PointSnapPublish,
			sched.PointSCXUpdate, sched.PointVerStamp,
		),
		MaxSchedules: cap,
	}, func(c *sched.Controller) error {
		tree := ebst.NewOrdered[int64, int64]()
		tree.Insert(10, -10)
		tree.Insert(20, -20)
		tree.Insert(30, -30)

		var snap dict.SnapshotView[int64, int64]
		var first snapObs
		c.Go("overwrite", func() { tree.Insert(20, 99) })
		c.Go("snapshot", func() {
			snap = tree.Snapshot()
			first = observeSnap(snap)
		})
		if err := c.Run(); err != nil {
			return err
		}
		defer snap.Release()

		if v, ok := first.val[2], first.ok[2]; !ok || (v != -20 && v != 99) {
			return fmt.Errorf("capture saw hot key as (%d, %t): neither the old nor the new published value", v, ok)
		}
		if again := observeSnap(snap); again != first {
			return fmt.Errorf("snapshot moved after the overwrite quiesced: %+v then %+v", first, again)
		}
		if v, _ := tree.Get(20); v != 99 {
			return fmt.Errorf("live tree lost the overwrite: Get(20) = %d", v)
		}
		return nil
	})
	if len(violations) > 0 {
		t.Fatalf("%d of %d schedules broke the fast-path publish/capture ordering; first:\nschedule %v\n%v",
			len(violations), schedules, violations[0].Schedule, violations[0].Err)
	}
	if schedules >= cap {
		t.Fatalf("enumeration hit the %d-schedule cap: not exhaustive", cap)
	}
	t.Logf("%d schedules, fast-path publish and capture never tear", schedules)
}
