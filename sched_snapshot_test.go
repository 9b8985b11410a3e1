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
// The capture's drain runs under sched.WaitUntil, so a schedule that parks a
// writer inside its publish window simply makes the capture
// wait-blocked until the controller has run the writer past the window —
// which is also what lets the fast-path value publish (PointVCellRecheck)
// be enumerated directly (see TestSnapshotFastPathPublishEnumeration).
//
// The windows are counted on epoch slots, a helper's on the slot of the SCX
// it runs, and captures, not commits, advance the version clock:
// TestSnapshotHelperWindowEnumeration is the window in which one writer's
// SCX is finished from another writer's goroutine under a capture, and
// TestSnapshotWindowMutationsCaught seeds the two bugs that design admits.

import (
	"fmt"
	"strings"
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
		{val: [4]int64{-10, 0, -20, -30}, ok: [4]bool{true, false, true, true}}, // S0
		{val: [4]int64{-10, 5, -20, -30}, ok: [4]bool{true, true, true, true}},  // S1: +15
		{val: [4]int64{0, 5, -20, -30}, ok: [4]bool{false, true, true, true}},   // S2: -10
		{val: [4]int64{0, 5, 99, -30}, ok: [4]bool{false, true, true, true}},    // S3: 20→99
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
	// The writer contributes at least 13 admitted points (insert 5, delete 7,
	// overwrite ≥ 1) and the capture goroutine 2, so a complete enumeration
	// cannot be smaller than the placements of 2 capture points among 14
	// writer segments: C(15, 2) = 105.
	wantSchedules(t, schedules, 3428)
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
	wantSchedules(t, schedules, 20)
	t.Logf("%d schedules, capture pins exactly one published value", schedules)
}

// TestSnapshotFastPathPublishEnumeration enumerates the seam the previous
// test holds shut: the in-place value publish of the overwrite fast path
// (inside a publish window on its guard's slot) against the capture's
// snapLive rise, clock advance and drain. Whichever way the race lands, the
// overwrite must either complete its Swap before the capture's drain
// observes zero — in which case
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
	wantSchedules(t, schedules, 7)
	t.Logf("%d schedules, fast-path publish and capture never tear", schedules)
}

// helperWindow is the three-worker window of the slot-local publish windows.
// Writer A's Insert(15) can park anywhere between its last freeze and its
// update CAS; writer B's Insert(16) lands on the same leaf, so its LLXs meet
// a record A froze and B finishes A's SCX - mark, stamp, install - from its
// own goroutine, inside a window it opens on A's slot, before it runs its own;
// C captures twice and reads each capture at once. The two insertions are
// concurrent for the whole window, so a capture may hold either, both or
// neither, but the second must hold what the first does, each must still
// answer the same once the window has quiesced, and their versions must not
// go backwards.
func helperWindow(c *sched.Controller) error {
	tree := ebst.NewOrdered[int64, int64]()
	tree.Insert(10, -10)
	tree.Insert(20, -20)
	tree.Insert(30, -30)

	// The fixed keys and the two the writers add.
	observe := func(v dict.SnapshotView[int64, int64]) (o [5]int64) {
		for i, k := range [...]int64{10, 20, 30, 15, 16} {
			o[i], _ = v.Get(k)
		}
		return o
	}
	var snap1, snap2 dict.SnapshotView[int64, int64]
	var first1, first2 [5]int64
	c.Go("writer-A", func() { tree.Insert(15, 5) })
	c.Go("writer-B", func() { tree.Insert(16, 6) })
	c.Go("snapshot", func() {
		snap1 = tree.Snapshot()
		first1 = observe(snap1)
		snap2 = tree.Snapshot()
		first2 = observe(snap2)
	})
	if err := c.Run(); err != nil {
		return err
	}
	defer snap1.Release()
	defer snap2.Release()

	for i, o := range [][5]int64{first1, first2} {
		if [3]int64(o[:3]) != [3]int64{-10, -20, -30} || (o[3] != 0 && o[3] != 5) || (o[4] != 0 && o[4] != 6) {
			return fmt.Errorf("snapshot %d observed a torn cut: %v", i+1, o)
		}
	}
	if (first1[3] != 0 && first2[3] == 0) || (first1[4] != 0 && first2[4] == 0) {
		return fmt.Errorf("later snapshot went backwards: %v then %v", first1, first2)
	}
	if snap2.Version() < snap1.Version() {
		return fmt.Errorf("later snapshot version %d < earlier %d", snap2.Version(), snap1.Version())
	}
	if again := observe(snap1); again != first1 {
		return fmt.Errorf("first snapshot moved after quiescence: %v then %v", first1, again)
	}
	if again := observe(snap2); again != first2 {
		return fmt.Errorf("second snapshot moved after quiescence: %v then %v", first2, again)
	}
	if a, _ := tree.Get(15); a != 5 {
		return fmt.Errorf("live tree lost writer A's insertion: Get(15) = %d", a)
	}
	if b, _ := tree.Get(16); b != 6 {
		return fmt.Errorf("live tree lost writer B's insertion: Get(16) = %d", b)
	}
	return nil
}

// helperWindowPoints admits the points between an SCX's last freeze and its
// update CAS, where A parks and B takes over, and the capture's own.
var helperWindowPoints = pointSet(
	sched.PointSCXMark, sched.PointVerStamp, sched.PointSCXUpdate,
	sched.PointSnapPublish,
)

// TestSnapshotHelperWindowEnumeration: every schedule of helperWindow yields
// frozen, monotone captures.
func TestSnapshotHelperWindowEnumeration(t *testing.T) {
	const cap = 200000
	schedules, violations := sched.Explore(sched.Options{Points: helperWindowPoints, MaxSchedules: cap}, helperWindow)
	if len(violations) > 0 {
		t.Fatalf("%d of %d schedules broke the snapshot contract; first:\nschedule %v\n%v",
			len(violations), schedules, violations[0].Schedule, violations[0].Err)
	}
	wantSchedules(t, schedules, 58278)
	t.Logf("%d schedules, every capture frozen with a helper finishing the other writer's SCX", schedules)
}

// TestSnapshotWindowMutationsCaught seeds the two bugs the slot-local windows
// admit and requires helperWindow to catch each: a helper that opens its
// window where no capture looks (SkipHelperWindow), and a version clock read
// before the window opens (StampBeforeWindow). Either lets a node stamped
// with a tick the capture covers be installed after the capture's first
// read, so the capture answers differently once the window has quiesced.
// (The healthy protocol passes the same enumeration above.)
func TestSnapshotWindowMutationsCaught(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mutation sched.Mutation
		caught   int
	}{
		{"SkipHelperWindow", sched.SkipHelperWindow, 10430},
		{"StampBeforeWindow", sched.StampBeforeWindow, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched.SetMutation(tc.mutation, true)
			defer sched.SetMutation(tc.mutation, false)
			schedules, violations := sched.Explore(sched.Options{
				Points:          helperWindowPoints,
				MaxSchedules:    200000,
				StopOnViolation: true,
			}, helperWindow)
			if len(violations) == 0 {
				t.Fatalf("mutation not caught in %d schedules: the enumeration has no teeth", schedules)
			}
			msg := violations[0].Err.Error()
			if !strings.Contains(msg, "moved after quiescence") {
				t.Fatalf("violation is not an un-frozen capture:\n%s", msg)
			}
			wantSchedules(t, schedules, tc.caught)
			t.Logf("caught after %d schedules, schedule %v:\n%s", schedules, violations[0].Schedule, msg)
		})
	}
}
