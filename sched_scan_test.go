//go:build sched

package repro

// Schedule enumeration of the chunk-validated range scan (lbst.RangeScan):
// one scan over a window of two or three keys runs against one concurrent
// writer under every interleaving of the scanner's LLXs with the writer's
// LLXs and update CASes. (With the freezing CASes admitted too, the token
// move passes 2 000 000 schedules unfinished.) A window this small is one chunk
// (the leaf limit only drops below it after more failed attempts than the
// writer has SCXs to cause), so in every schedule the emitted keys must be
// the window's content at one instant - one of the states the writer's
// sequential history passes through - and the recorded history, scan steps
// included, must pass the linearizability checker.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/linearize"
	"repro/internal/ravl"
	"repro/internal/sched"
)

func TestChunkedScanEnumeration(t *testing.T) {
	cases := []struct {
		name   string
		newMap func() dict.Map[int64, int64]
		setup  []int64
		writer func(w *linearize.Proc[int64, int64])
		// states are the window's contents over the writer's history.
		states    [][]int64
		schedules int
	}{
		{
			name:      "delete",
			newMap:    func() dict.Map[int64, int64] { return ebst.New() },
			setup:     []int64{20, 10, 30},
			writer:    func(w *linearize.Proc[int64, int64]) { w.Delete(20) },
			states:    [][]int64{{10, 20, 30}, {10, 30}},
			schedules: 910,
		},
		{
			// The token moves from 30 to 5, behind a scanner that has passed
			// 5: a walk validating key by key could emit {10} alone, which
			// the window never held.
			name:      "insert-behind-delete-ahead",
			newMap:    func() dict.Map[int64, int64] { return ebst.New() },
			setup:     []int64{10, 30},
			writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(5, -5); w.Delete(30) },
			states:    [][]int64{{10, 30}, {5, 10, 30}, {5, 10}},
			schedules: 21161,
		},
		{
			// On the relaxed AVL tree the third insert is followed by a
			// rebalancing step, which replaces internal nodes the scanner may
			// already hold snapshots of without changing the key set.
			name:      "insert-with-rebalance",
			newMap:    func() dict.Map[int64, int64] { return ravl.New() },
			setup:     []int64{10, 20},
			writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(30, -30) },
			states:    [][]int64{{10, 20}, {10, 20, 30}},
			schedules: 6794,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const cap = 400000
			seen := map[string]int{}
			schedules, violations := sched.Explore(sched.Options{
				Points:       pointSet(sched.PointLLX, sched.PointSCXUpdate),
				MaxSchedules: cap,
			}, func(c *sched.Controller) error {
				m := tc.newMap()
				rec := linearize.NewRecorder[int64, int64](m)
				setup := rec.Proc()
				for _, k := range tc.setup {
					setup.Insert(k, -k)
				}
				rt, balanced := m.(*ravl.Tree[int64, int64])
				var stepsBefore int64
				if balanced {
					stepsBefore = rt.Stats().RebalanceTotal()
				}
				scanner, writer := rec.Proc(), rec.Proc()
				c.Go("scan", func() { scanner.Scan(1, 35) })
				c.Go("write", func() { tc.writer(writer) })
				if err := c.Run(); err != nil {
					return err
				}
				if balanced && rt.Stats().RebalanceTotal() == stepsBefore {
					return fmt.Errorf("the insert triggered no rebalancing step")
				}
				var emitted []int64
				for _, op := range rec.History().Ops {
					if op.Kind != linearize.KindScanStep {
						continue
					}
					if op.Out != -op.Key {
						return fmt.Errorf("scan emitted (%d, %d), want value %d", op.Key, op.Out, -op.Key)
					}
					emitted = append(emitted, op.Key)
				}
				if !slices.ContainsFunc(tc.states, func(s []int64) bool { return slices.Equal(s, emitted) }) {
					return fmt.Errorf("scan emitted %v, which the window held at no instant (states %v)", emitted, tc.states)
				}
				seen[fmt.Sprint(emitted)]++
				return checkHistory(rec)
			})
			if len(violations) > 0 {
				t.Fatalf("%d of %d schedules violate chunk atomicity or linearizability; first:\nschedule %v\n%v",
					len(violations), schedules, violations[0].Schedule, violations[0].Err)
			}
			wantSchedules(t, schedules, tc.schedules)
			// Every state must be reachable, or the window is not racing.
			if len(seen) != len(tc.states) {
				t.Fatalf("%d schedules reached only the states %v of %v", schedules, seen, tc.states)
			}
			t.Logf("%d schedules, every scan chunk-atomic and linearizable; emitted sets: %v", schedules, seen)
		})
	}
}

// A neighborRow is a window of the ordered point query (lbst's neighbor,
// under Successor, Predecessor, Min and Max): one query on the registry's
// Chromatic over the five keys 10..50 against a writer that inserts a key
// and then deletes another, such that the key the query would answer with
// before either update is wrong after the first and the key it would find
// after the second was never right.
//
// In the bounded rows the inserted key lands beside the leaf the query's
// first descent ends at and the deleted key is the adjacent leaf, in the
// other subtree of the descent's last turn, two levels below it so that the
// node the deletion writes to is one the walk passes and not one it froze.
// A walk that skips its closing VLX answers with the row's never key when
// both updates fall between its two descents. An absent key's Predecessor search ends at the
// predecessor itself unless a router between the two outlived its key, so
// that row's setup inserts 32 and deletes it again, which leaves 32 routing
// at the root: ((10 (20 30)) 32 (40 50)) against ((10 20) 30 ((30 40) 50)).
// The unbounded rows put both updates on the spine Min and Max descend, which
// they return from without a VLX. Neither writer's update needs a
// rebalancing step in these shapes (each insertion lands below a node of
// weight one, each deletion removes a leaf below a red one).
//
// The decisions are the LLXs of both sides, which is every way the two
// updates can fall around the query's two descents, and the writer's update
// CASes, which park each SCX after its freezes, where the query's LLXs meet
// frozen records and help it. Admitting PointSCXCommit as well is out of
// reach of a depth-first enumeration: the smallest row was past 750 000
// schedules when it was stopped.
type neighborRow struct {
	name   string
	setup  []int64 // inserted in order; a negative entry deletes the key
	writer func(w *linearize.Proc[int64, int64])
	query  func(m dict.IntOrderedMap) (k, v int64, ok bool)
	// states are the query's answers over the writer's history, never the
	// answer of a query that saw the second update without the first.
	states []int64
	never  int64
	// schedules is the row's count, and caught the schedule at which a
	// bounded row catches SkipNeighborVLX.
	schedules, caught int
}

var neighborRows = []neighborRow{
	{
		name:      "predecessor",
		setup:     []int64{10, 20, 40, 32, 50, 30, -32},
		writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(34, -34); w.Delete(30) },
		query:     func(m dict.IntOrderedMap) (int64, int64, bool) { return m.Predecessor(35) },
		states:    []int64{30, 34},
		never:     20,
		schedules: 121640, caught: 132,
	},
	{
		name:      "successor",
		setup:     []int64{10, 20, 30, 50, 40},
		writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(26, -26); w.Delete(30) },
		query:     func(m dict.IntOrderedMap) (int64, int64, bool) { return m.Successor(25) },
		states:    []int64{30, 26},
		never:     40,
		schedules: 121640, caught: 132,
	},
	{
		name:   "max",
		setup:  []int64{10, 20, 30, 50, 40},
		writer: func(w *linearize.Proc[int64, int64]) { w.Insert(60, -60); w.Delete(50) },
		query: func(m dict.IntOrderedMap) (int64, int64, bool) {
			return m.(interface{ Max() (int64, int64, bool) }).Max()
		},
		states:    []int64{50, 60},
		never:     40,
		schedules: 82296,
	},
	{
		name:   "min",
		setup:  []int64{10, 20, 40, 32, 50, 30, -32},
		writer: func(w *linearize.Proc[int64, int64]) { w.Insert(5, -5); w.Delete(10) },
		query: func(m dict.IntOrderedMap) (int64, int64, bool) {
			return m.(interface{ Min() (int64, int64, bool) }).Min()
		},
		states:    []int64{10, 5},
		never:     20,
		schedules: 82296,
	},
}

// neighborWindow explores one row and returns how often each answer was given.
func neighborWindow(t *testing.T, row neighborRow, stopOnViolation bool) (schedules int, violations []sched.Violation, seen map[int64]int) {
	factory, ok := bench.Lookup("Chromatic")
	if !ok {
		t.Fatal("Chromatic is not in the bench registry")
	}
	seen = map[int64]int{}
	schedules, violations = sched.Explore(sched.Options{
		Points:          pointSet(sched.PointLLX, sched.PointSCXUpdate),
		MaxSchedules:    neighborCap,
		StopOnViolation: stopOnViolation,
	}, func(c *sched.Controller) error {
		m := factory.New().(dict.IntOrderedMap)
		rec := linearize.NewRecorder[int64, int64](m)
		setup, writer := rec.Proc(), rec.Proc()
		for _, k := range row.setup {
			if k < 0 {
				setup.Delete(-k)
			} else {
				setup.Insert(k, -k)
			}
		}
		var k, v int64
		var found bool
		c.Go("query", func() { k, v, found = row.query(m) })
		c.Go("write", func() { row.writer(writer) })
		if err := c.Run(); err != nil {
			return err
		}
		if !found || v != -k || !slices.Contains(row.states, k) {
			return fmt.Errorf("%s answered (%d, %d, %v); the answers the writer's history passes through are %v", row.name, k, v, found, row.states)
		}
		seen[k]++
		return checkHistory(rec)
	})
	return schedules, violations, seen
}

const neighborCap = 200000

// TestNeighborWindowEnumeration: in every schedule of every row the query
// answers with a key that was its answer at some instant.
func TestNeighborWindowEnumeration(t *testing.T) {
	for _, row := range neighborRows {
		t.Run(row.name, func(t *testing.T) {
			schedules, violations, seen := neighborWindow(t, row, false)
			if len(violations) > 0 {
				t.Fatalf("%d of %d schedules gave an answer the dictionary never held; first:\nschedule %v\n%v",
					len(violations), schedules, violations[0].Schedule, violations[0].Err)
			}
			wantSchedules(t, schedules, row.schedules)
			// Every answer must be reachable, or the window is not racing.
			if len(seen) != len(row.states) {
				t.Fatalf("%d schedules reached only the answers %v of %v", schedules, seen, row.states)
			}
			t.Logf("%d schedules, every answer one the dictionary held; answers: %v", schedules, seen)
		})
	}
}

// TestNeighborMutationCaught arms SkipNeighborVLX, a query that takes its
// closing VLX to have succeeded whatever it says, and requires the bounded
// rows to catch it on both sides with the answer their comment predicts.
// (The healthy protocol passes the same enumeration above; Min and Max have
// no VLX to skip.)
func TestNeighborMutationCaught(t *testing.T) {
	for _, row := range neighborRows[:2] {
		t.Run(row.name, func(t *testing.T) {
			sched.SetMutation(sched.SkipNeighborVLX, true)
			defer sched.SetMutation(sched.SkipNeighborVLX, false)
			schedules, violations, _ := neighborWindow(t, row, true)
			if len(violations) == 0 {
				t.Fatalf("mutation not caught in %d schedules: the enumeration has no teeth", schedules)
			}
			msg := violations[0].Err.Error()
			if want := fmt.Sprintf("answered (%d, %d, true)", row.never, -row.never); !strings.Contains(msg, want) {
				t.Fatalf("violation is not the stale walk's answer %d:\n%s", row.never, msg)
			}
			wantSchedules(t, schedules, row.caught)
			t.Logf("caught after %d schedules, schedule %v:\n%s", schedules, violations[0].Schedule, msg)
		})
	}
}
