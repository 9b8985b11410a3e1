//go:build sched

package repro

// Deterministic schedule enumeration over the instrumented LLX/SCX stack
// (internal/sched) combined with the linearizability checker
// (internal/linearize): every interleaving of a bounded conflict window is
// replayed under the cooperative controller, the recorded history of each
// schedule is checked against the sequential specification, and the seeded
// protocol mutations (a dropped freeze, a skipped block sequence check, an
// LLX that does not read the finalized flag) are proven to be caught.
//
// The windows run on EBST: it is the plainest instantiation of the tree
// update template (no rebalancing policy), so its point sequence is the
// template's own — insertion SCX freezing {p, l}, deletion SCX freezing
// {gp, p, l, s} and finalizing {p, l, s}, and the SCX-free vcell overwrite.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ebst"
	"repro/internal/linearize"
	"repro/internal/sched"
)

// pointSet builds an Options.Points filter admitting exactly the given
// instrumentation points.
func pointSet(ids ...sched.PointID) func(sched.PointID) bool {
	admit := make(map[sched.PointID]bool, len(ids))
	for _, id := range ids {
		admit[id] = true
	}
	return func(p sched.PointID) bool { return admit[p] }
}

// wantSchedules fails the test unless an enumeration ran exactly want
// schedules. A replay is a pure function of its decision prefix, so every
// window's count (and the schedule at which each mutation is caught) is
// pinned: a change in it means the window's schedule space changed.
func wantSchedules(t *testing.T, got, want int) {
	t.Helper()
	if got != want {
		t.Fatalf("explored %d schedules, want %d", got, want)
	}
}

// checkHistory runs the checker over the recorded history and converts a
// violation into an error for Explore.
func checkHistory(rec *linearize.Recorder[int64, int64]) error {
	if res := linearize.Check(rec.History()); !res.OK() {
		return fmt.Errorf("%s", res.Report())
	}
	return nil
}

// TestConflictWindowEnumerationLinearizable exhaustively enumerates bounded
// insert/delete/overwrite conflict windows and requires a strictly
// linearizable history under every schedule. The windows use adjacent keys;
// the sharper overwrite-vs-delete-of-the-same-key window (once a documented
// anomaly, closed by the publish bracket) is enumerated separately below.
// Any violation here is a real protocol bug: a lost update, a lost subtree,
// or a torn multi-record read.
func TestConflictWindowEnumerationLinearizable(t *testing.T) {
	cases := []struct {
		name   string
		points []sched.PointID
		// schedules is the window's count. The interleaving count with no
		// retries (the multinomial of the workers' segment counts) is a
		// lower bound; contention retries only add schedules.
		schedules int
		workers   func(rec *linearize.Recorder[int64, int64], c *sched.Controller)
	}{
		{
			// Fresh insert vs. deletion of an adjacent key: the two SCXs
			// contend on the shared parent and leaf records.
			name:      "insert-vs-delete",
			points:    []sched.PointID{sched.PointSCXFreeze, sched.PointSCXUpdate},
			schedules: 926, // segments (6,4): at least C(10,4) = 210
			workers: func(rec *linearize.Recorder[int64, int64], c *sched.Controller) {
				w0, w1 := rec.Proc(), rec.Proc()
				c.Go("delete-10", func() { w0.Delete(10) })
				c.Go("insert-15", func() { w1.Insert(15, 5) })
			},
		},
		{
			// In-place overwrite vs. deletion of an adjacent key: the
			// deletion's sibling copy aliases the overwritten leaf's value
			// cell, so the publish must stay visible through the copy.
			name: "overwrite-vs-adjacent-delete",
			points: []sched.PointID{
				sched.PointSCXFreeze, sched.PointSCXUpdate,
				sched.PointVCellPublish, sched.PointVCellRecheck,
			},
			schedules: 84, // segments (6,3): at least C(9,3) = 84
			workers: func(rec *linearize.Recorder[int64, int64], c *sched.Controller) {
				w0, w1 := rec.Proc(), rec.Proc()
				c.Go("overwrite-20", func() { w0.Insert(20, 99) })
				c.Go("delete-10", func() { w1.Delete(10) })
			},
		},
		{
			// Three-way window at coarser points: a fresh insert, a delete
			// whose sibling copy aliases the hot leaf, and an overwrite of
			// that leaf — the delete's copy races the overwrite's publish
			// bracket. PointVCellRecheck must be admitted: it is the only
			// point a FAILED publish attempt crosses (the bracket checks the
			// mark before swapping), so without it an overwrite retrying
			// against a parked mid-SCX delete never yields to the controller.
			name: "insert-delete-overwrite",
			points: []sched.PointID{
				sched.PointSCXUpdate, sched.PointVCellPublish, sched.PointVCellRecheck,
			},
			schedules: 844, // segments (2,2,3): at least 7!/(2!2!3!) = 210
			workers: func(rec *linearize.Recorder[int64, int64], c *sched.Controller) {
				w0, w1, w2 := rec.Proc(), rec.Proc(), rec.Proc()
				c.Go("insert-15", func() { w0.Insert(15, 5) })
				c.Go("delete-30", func() { w1.Delete(30) })
				c.Go("overwrite-20", func() { w2.Insert(20, 99) })
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const cap = 50000
			schedules, violations := sched.Explore(sched.Options{
				Points:       pointSet(tc.points...),
				MaxSchedules: cap,
			}, func(c *sched.Controller) error {
				rec := linearize.NewRecorder[int64, int64](ebst.NewOrdered[int64, int64]())
				setup := rec.Proc()
				setup.Insert(10, -10)
				setup.Insert(20, -20)
				setup.Insert(30, -30)
				tc.workers(rec, c)
				if err := c.Run(); err != nil {
					return err
				}
				post := rec.Proc()
				for _, k := range []int64{10, 15, 20, 30} {
					post.Get(k)
				}
				return checkHistory(rec)
			})
			if len(violations) > 0 {
				t.Fatalf("%d of %d schedules not linearizable; first:\nschedule %v\n%v",
					len(violations), schedules, violations[0].Schedule, violations[0].Err)
			}
			wantSchedules(t, schedules, tc.schedules)
			t.Logf("%d schedules, all linearizable", schedules)
		})
	}
}

// TestOverwriteDeleteWindowClosed enumerates the conflict that was, until
// the publish-bracket protocol (see internal/vcell and the overwrite
// protocol in internal/lbst), the one documented non-linearizable window in
// the stack: an in-place overwrite racing a deletion of the same key. The
// old publish-then-recheck protocol let an ambiguous publisher re-execute a
// publish the delete had already consumed — a double effect this very
// enumeration (and the chaos churn suite) exhibited. With the bracket in
// place every schedule must now be strictly linearizable, and the concrete
// response guarantees hold: the delete returns a published value, the
// insert either overwrites the old value or re-executes as a fresh insert
// after the delete, and no schedule shows both the delete and the insert
// claiming the same displaced value.
func TestOverwriteDeleteWindowClosed(t *testing.T) {
	const hot = int64(20)
	const cap = 50000
	schedules, violations := sched.Explore(sched.Options{
		Points: pointSet(
			sched.PointSCXFreeze, sched.PointSCXUpdate, sched.PointSCXCommit,
			sched.PointVCellPublish, sched.PointVCellRecheck,
		),
		MaxSchedules: cap,
	}, func(c *sched.Controller) error {
		rec := linearize.NewRecorder[int64, int64](ebst.NewOrdered[int64, int64]())
		setup := rec.Proc()
		setup.Insert(10, -10)
		setup.Insert(hot, -20)
		setup.Insert(30, -30)

		w0, w1 := rec.Proc(), rec.Proc()
		var insOut, delOut int64
		var insOK, delOK bool
		c.Go("overwrite-20", func() { insOut, insOK = w0.Insert(hot, 42) })
		c.Go("delete-20", func() { delOut, delOK = w1.Delete(hot) })
		if err := c.Run(); err != nil {
			return err
		}
		post := rec.Proc()
		gv, gok := post.Get(hot)

		// The concrete response guarantees, checked in every schedule.
		if !delOK || (delOut != -20 && delOut != 42) {
			return fmt.Errorf("delete returned (%d, %t): not a published value", delOut, delOK)
		}
		switch {
		case insOK && insOut == -20: // overwrite took effect before the delete
		case !insOK && insOut == 0: // re-executed as a fresh insert after the delete
		default:
			return fmt.Errorf("insert returned (%d, %t): neither overwrite nor re-execution", insOut, insOK)
		}
		if !insOK && (gv != 42 || !gok) {
			return fmt.Errorf("insert re-executed after the delete but Get = (%d, %t), want (42, true)", gv, gok)
		}
		if insOK && delOut == -20 {
			// A successful publish is drained by the delete before it loads
			// the displaced value, so the delete must have returned 42.
			return fmt.Errorf("insert claims overwrite of -20 but delete also returned -20")
		}

		// Strict linearizability in every schedule: the bracket makes a
		// failed publish effect-free, so the double-effect anomaly is gone.
		return checkHistory(rec)
	})
	if len(violations) > 0 {
		t.Fatalf("%d of %d schedules not linearizable; first:\nschedule %v\n%v",
			len(violations), schedules, violations[0].Schedule, violations[0].Err)
	}
	wantSchedules(t, schedules, 328)
	t.Logf("%d schedules, all linearizable", schedules)
}

// TestDroppedFreezeMutationCaught is the SCX half of the seeded-mutation
// self-tests: arming sched.DropFreeze makes every SCX skip the freeze of
// V[0] — for the deletion template the grandparent, exactly the record
// whose freeze makes the child-pointer swing atomic with the LLX snapshot.
//
// The window pairs two deletions whose V-sets overlap ONLY at a record each
// treats as its skipped slot's protectee: in the tree built by inserting
// 40, 10, 20, 30 the deletion of 20 has V = {I20, I30, leaf20, leaf30} and
// the deletion of 40 has V = {entry, I40, I20, leaf40} with I20 as its
// sibling — so with the grandparent freeze dropped, delete(20) never
// detects that delete(40) finalized I20 and promoted a copy of it, and
// commits its unlink into the dead original. The live copy still reaches
// leaf20: the acknowledged delete is lost, and the checker reports key 20
// as non-linearizable. With the knob off the same enumeration must be
// violation-free (the healthy freeze on the shared records forces the loser
// to abort and retry).
func TestDroppedFreezeMutationCaught(t *testing.T) {
	body := func(c *sched.Controller) error {
		rec := linearize.NewRecorder[int64, int64](ebst.NewOrdered[int64, int64]())
		setup := rec.Proc()
		for _, k := range []int64{40, 10, 20, 30} { // order fixes the shape
			setup.Insert(k, -k)
		}
		d1, d3 := rec.Proc(), rec.Proc()
		c.Go("delete-20", func() { d1.Delete(20) })
		c.Go("delete-40", func() { d3.Delete(40) })
		if err := c.Run(); err != nil {
			return err
		}
		post := rec.Proc()
		for _, k := range []int64{10, 20, 30, 40} {
			post.Get(k)
		}
		return checkHistory(rec)
	}
	points := pointSet(sched.PointSCXFreeze)

	t.Run("healthy-protocol", func(t *testing.T) {
		const cap = 20000
		schedules, violations := sched.Explore(sched.Options{
			Points:       points,
			MaxSchedules: cap,
		}, body)
		if len(violations) > 0 {
			t.Fatalf("healthy protocol produced %d violations in %d schedules; first:\n%v",
				len(violations), schedules, violations[0].Err)
		}
		wantSchedules(t, schedules, 2736)
		t.Logf("%d schedules, all linearizable", schedules)
	})

	t.Run("mutated-protocol", func(t *testing.T) {
		sched.SetMutation(sched.DropFreeze, true)
		defer sched.SetMutation(sched.DropFreeze, false)
		schedules, violations := sched.Explore(sched.Options{
			Points:          points,
			MaxSchedules:    20000,
			StopOnViolation: true,
		}, body)
		if len(violations) == 0 {
			t.Fatalf("dropped-freeze mutation not caught in %d schedules: the checker has no teeth", schedules)
		}
		msg := violations[0].Err.Error()
		if !strings.Contains(msg, "linearizability violation") || !strings.Contains(msg, "key 20") {
			t.Fatalf("violation is not the lost delete of key 20:\n%s", msg)
		}
		wantSchedules(t, schedules, 2)
		t.Logf("mutation caught after %d schedules:\n%s", schedules, msg)
	})
}

// TestSkippedMarkedReadMutationCaught is the seeded mutation of LLX itself:
// arming sched.SkipMarkedRead makes LLX take every record to be unfinalized,
// so it hands out a snapshot of a node that a committed SCX has removed.
//
// The window is an insertion racing the deletion of the leaf it lands next
// to, interleaved at the LLXs: in the tree built by inserting 10, 20, 30 the
// insert of 15 searches to p = I20, l = leaf10, and delete(10) removes
// exactly those (and promotes a copy of I20's other child). In the schedules
// where the deletion commits between the insertion's search and its LLXs,
// the healthy LLX(I20) reports Finalized and the insertion searches again.
// The mutated one links I20 and leaf10 with the tags the deletion left in
// them, which nothing will ever change, so the insertion's SCX freezes both
// and commits into the removed subtree: an acknowledged insert of a key no
// later Get finds, which the checker reports on key 15.
//
// The scan windows of sched_scan_test.go cannot see this mutation, by
// construction and not for want of schedules (the scan-vs-delete window
// stays at zero violations in all 910 with it armed): a reader only reaches
// a removed node through the snapshot of its parent, the SCX that removed
// the node froze that parent, and so the reader's closing VLX fails on the
// parent whatever LLX said about the child. The finalized flag protects
// updates, whose SCX validates only the records it links.
func TestSkippedMarkedReadMutationCaught(t *testing.T) {
	body := func(c *sched.Controller) error {
		rec := linearize.NewRecorder[int64, int64](ebst.NewOrdered[int64, int64]())
		setup := rec.Proc()
		for _, k := range []int64{10, 20, 30} {
			setup.Insert(k, -k)
		}
		w0, w1 := rec.Proc(), rec.Proc()
		c.Go("delete-10", func() { w0.Delete(10) })
		c.Go("insert-15", func() { w1.Insert(15, 5) })
		if err := c.Run(); err != nil {
			return err
		}
		post := rec.Proc()
		for _, k := range []int64{10, 15, 20, 30} {
			post.Get(k)
		}
		return checkHistory(rec)
	}
	points := pointSet(sched.PointLLX)

	t.Run("healthy-protocol", func(t *testing.T) {
		const cap = 20000
		schedules, violations := sched.Explore(sched.Options{
			Points:       points,
			MaxSchedules: cap,
		}, body)
		if len(violations) > 0 {
			t.Fatalf("healthy protocol produced %d violations in %d schedules; first:\n%v",
				len(violations), schedules, violations[0].Err)
		}
		wantSchedules(t, schedules, 56)
		t.Logf("%d schedules, all linearizable", schedules)
	})

	t.Run("mutated-protocol", func(t *testing.T) {
		sched.SetMutation(sched.SkipMarkedRead, true)
		defer sched.SetMutation(sched.SkipMarkedRead, false)
		schedules, violations := sched.Explore(sched.Options{
			Points:          points,
			MaxSchedules:    20000,
			StopOnViolation: true,
		}, body)
		if len(violations) == 0 {
			t.Fatalf("skipped-marked-read mutation not caught in %d schedules: the checker has no teeth", schedules)
		}
		msg := violations[0].Err.Error()
		if !strings.Contains(msg, "linearizability violation") || !strings.Contains(msg, "key 15") {
			t.Fatalf("violation is not the lost insert of key 15:\n%s", msg)
		}
		wantSchedules(t, schedules, 2)
		t.Logf("mutation caught after %d schedules:\n%s", schedules, msg)
	})
}

// TestStaleHelperWindow enumerates the window that descriptor reuse opens
// and the argument block's sequence number closes. SCX descriptors are per
// epoch slot, so one worker's consecutive updates run on the same
// descriptor: here delete(10) with V = {I40, I20, leaf10, leaf20} and then
// delete(40) with V = {sentinel, I40, leaf20', leaf40} in the tree built by
// inserting 20, 40, 10. The other worker's insert(30) meets delete(10)'s
// frozen records and helps it; PointSCXRead parks that helper between its
// load of the descriptor's status word and its load of the descriptor's
// block pointer, and in the schedules this test is about the owner meanwhile
// commits delete(10) and publishes delete(40)'s block. The helper must then
// find the block's sequence number is not its tag's and leave it alone.
//
// With sched.SkipValidate armed it does not: under delete(10)'s tag and
// all-frozen status the helper finalizes delete(40)'s records and performs
// its pointer swing before delete(40) has frozen anything. The helper's own
// insert(30) then lands at the sentinel, which delete(40) still has to
// freeze; delete(40) aborts, retries, and finds its key already gone: an
// acknowledged-absent delete of a key nobody else removed, which the checker
// reports on key 40.
//
// Neither count depends on how the arguments reach the helper: it passes
// the same points in the same order whether it reads them from a block or
// from descriptor fields, and under the mutation the block it runs,
// delete(40)'s, has the |V| and R mask (three of four records) of
// delete(10)'s.
func TestStaleHelperWindow(t *testing.T) {
	// Parking at every freezing CAS would put this window out of exhaustive
	// reach (helping replays the freeze loop), and only one of them matters:
	// the first freezing CAS after the owner has started on its second
	// operation, which is where delete(40) sits with its block published
	// and nothing frozen. secondOp arms that one park; exactly one worker
	// runs at a time, so the two flags are plain variables.
	var secondOp, parkedAtFreeze bool
	points := func(id sched.PointID) bool {
		switch id {
		case sched.PointSCXRead, sched.PointSCXCommit:
			return true
		case sched.PointSCXFreeze:
			if secondOp && !parkedAtFreeze {
				parkedAtFreeze = true
				return true
			}
		}
		return false
	}
	body := func(c *sched.Controller) error {
		secondOp, parkedAtFreeze = false, false
		rec := linearize.NewRecorder[int64, int64](ebst.NewOrdered[int64, int64]())
		setup := rec.Proc()
		for _, k := range []int64{20, 40, 10} { // order fixes the shape
			setup.Insert(k, -k)
		}
		owner, helper := rec.Proc(), rec.Proc()
		c.Go("delete-10-then-40", func() {
			// Worker 0 pins slot 0 on both deletions (sched.Slot), so both
			// run on that slot's descriptor.
			owner.Delete(10)
			secondOp = true
			owner.Delete(40)
		})
		c.Go("insert-30", func() { helper.Insert(30, 3) })
		if err := c.Run(); err != nil {
			return err
		}
		// Checked key by key, 40 first: under the mutation the aborted
		// delete(40) also recycles a node the helper made reachable, and a
		// Get that walks into it would crash before the checker has spoken.
		post := rec.Proc()
		for _, k := range []int64{40, 30, 20, 10} {
			post.Get(k)
			if err := checkHistory(rec); err != nil {
				return err
			}
		}
		return nil
	}

	t.Run("healthy-protocol", func(t *testing.T) {
		const cap = 50000
		schedules, violations := sched.Explore(sched.Options{
			Points:       points,
			MaxSchedules: cap,
		}, body)
		if len(violations) > 0 {
			t.Fatalf("healthy protocol produced %d violations in %d schedules; first:\nschedule %v\n%v",
				len(violations), schedules, violations[0].Schedule, violations[0].Err)
		}
		wantSchedules(t, schedules, 43)
		t.Logf("%d schedules, all linearizable", schedules)
	})

	t.Run("mutated-protocol", func(t *testing.T) {
		sched.SetMutation(sched.SkipValidate, true)
		defer sched.SetMutation(sched.SkipValidate, false)
		schedules, violations := sched.Explore(sched.Options{
			Points:          points,
			MaxSchedules:    50000,
			StopOnViolation: true,
		}, body)
		if len(violations) == 0 {
			t.Fatalf("skipped-validation mutation not caught in %d schedules: the checker has no teeth", schedules)
		}
		msg := violations[0].Err.Error()
		if !strings.Contains(msg, "linearizability violation") || !strings.Contains(msg, "key 40") {
			t.Fatalf("violation is not the lost delete of key 40:\n%s", msg)
		}
		wantSchedules(t, schedules, 22)
		t.Logf("mutation caught after %d schedules:\n%s", schedules, msg)
	})
}
