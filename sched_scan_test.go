//go:build sched

package repro

// Schedule enumeration of the chunk-validated range scan (lbst.RangeScan):
// one scan over a window of two or three keys runs against one concurrent
// writer under every interleaving of the scanner's LLXs with the writer's
// LLXs, freezing CASes and update CASes. A window this small is one chunk
// (the leaf limit only drops below it after more failed attempts than the
// writer has SCXs to cause), so in every schedule the emitted keys must be
// the window's content at one instant - one of the states the writer's
// sequential history passes through - and the recorded history, scan steps
// included, must pass the linearizability checker.

import (
	"fmt"
	"slices"
	"testing"

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
		states [][]int64
	}{
		{
			name:   "delete",
			newMap: func() dict.Map[int64, int64] { return ebst.New() },
			setup:  []int64{20, 10, 30},
			writer: func(w *linearize.Proc[int64, int64]) { w.Delete(20) },
			states: [][]int64{{10, 20, 30}, {10, 30}},
		},
		{
			// The token moves from 30 to 5, behind a scanner that has passed
			// 5: a walk validating key by key could emit {10} alone, which
			// the window never held.
			name:   "insert-behind-delete-ahead",
			newMap: func() dict.Map[int64, int64] { return ebst.New() },
			setup:  []int64{10, 30},
			writer: func(w *linearize.Proc[int64, int64]) { w.Insert(5, -5); w.Delete(30) },
			states: [][]int64{{10, 30}, {5, 10, 30}, {5, 10}},
		},
		{
			// On the relaxed AVL tree the third insert is followed by a
			// rebalancing step, which replaces internal nodes the scanner may
			// already hold snapshots of without changing the key set.
			name:   "insert-with-rebalance",
			newMap: func() dict.Map[int64, int64] { return ravl.New() },
			setup:  []int64{10, 20},
			writer: func(w *linearize.Proc[int64, int64]) { w.Insert(30, -30) },
			states: [][]int64{{10, 20}, {10, 20, 30}},
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
				c.Go("scan", func() { scanner.Scan(1, 35, dict.Ordered[int64]()) })
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
			if schedules >= cap {
				t.Fatalf("enumeration hit the %d-schedule cap: not exhaustive", cap)
			}
			// Every state must be reachable, or the window is not racing.
			if len(seen) != len(tc.states) {
				t.Fatalf("%d schedules reached only the states %v of %v", schedules, seen, tc.states)
			}
			t.Logf("%d schedules, every scan chunk-atomic and linearizable; emitted sets: %v", schedules, seen)
		})
	}
}
