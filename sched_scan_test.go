//go:build sched

package repro

// Schedule enumeration of the live range scan (lbst.RangeScan): one scan
// over a window of two to five keys runs against one or two concurrent
// writers under every interleaving of the scan's walk - a decision before
// each child pointer it loads - with the writers' LLXs and update CASes (and,
// per row, their freezes or the point between freezing and marking).
// The scan takes a versioned cut: it advances the tree's clock, waits out
// the publish windows open at that moment and walks the cut at the version
// it advanced from. So in every schedule the emitted keys must be exactly
// the cut at that version, read back from the quiescent tree afterwards
// (lbst's KeysAt); they must be a state of the window the writers' histories
// pass through; and the recorded history, scan steps included, must pass the
// linearizability checker. The scan is the tree's only capture, so its
// version is 0.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/epoch"
	"repro/internal/linearize"
	"repro/internal/ravl"
	"repro/internal/sched"
)

// A liveScanRow is one window: a tree holding setup, writers run
// concurrently with RangeScan(1, 35), and the window's contents over every
// order of the writers' histories.
type liveScanRow struct {
	name    string
	newTree func() dict.Map[int64, int64]
	setup   []int64
	writers []func(w *linearize.Proc[int64, int64])
	points  func(sched.PointID) bool
	states  [][]int64
	// schedules is the row's count.
	schedules int
}

func newEBST() dict.Map[int64, int64] { return ebst.New() }
func newRAVL() dict.Map[int64, int64] { return ravl.New() }

// scanPoints admits the walk's reads and the writers' LLXs and update CASes.
var scanPoints = pointSet(sched.PointScanWalk, sched.PointLLX, sched.PointSCXUpdate)

var (
	// Two writers whose updates are both in flight when the scan takes its
	// version, one landing behind the walk and one ahead of it: a scan that
	// does not wait for them can pass one's position before it is installed
	// and meet the other installed, though both are stamped with the tick it
	// covers. Either order of the two insertions is a history of the window,
	// so every subset is a state; only the cut tells the scan's answer from
	// a torn one.
	twoWriterRow = liveScanRow{
		name:    "two-writers-either-side",
		newTree: newEBST,
		setup:   []int64{10, 20, 30},
		writers: []func(w *linearize.Proc[int64, int64]){
			func(w *linearize.Proc[int64, int64]) { w.Insert(15, -15) },
			func(w *linearize.Proc[int64, int64]) { w.Insert(25, -25) },
		},
		points:    pointSet(sched.PointScanWalk, sched.PointSCXUpdate),
		states:    [][]int64{{10, 20, 30}, {10, 15, 20, 30}, {10, 20, 25, 30}, {10, 15, 20, 25, 30}},
		schedules: 1498,
	}
	// The second writer's insertion lands on the leaf the first one's SCX
	// froze, so it finishes that SCX - stamp and install - from its own
	// goroutine, inside a window it opens on the first writer's slot, before
	// it runs its own. The first writer parks after its freezes, outside any
	// window.
	helperRow = liveScanRow{
		name:    "helper-finishes-the-other-writer",
		newTree: newEBST,
		setup:   []int64{10, 20},
		writers: []func(w *linearize.Proc[int64, int64]){
			func(w *linearize.Proc[int64, int64]) { w.Insert(15, -15) },
			func(w *linearize.Proc[int64, int64]) { w.Insert(16, -16) },
		},
		points:    pointSet(sched.PointScanWalk, sched.PointSCXMark, sched.PointSCXUpdate),
		states:    [][]int64{{10, 20}, {10, 15, 20}, {10, 16, 20}, {10, 15, 16, 20}},
		schedules: 51146,
	}
)

var liveScanRows = []liveScanRow{
	{
		name:      "delete",
		newTree:   newEBST,
		setup:     []int64{20, 10, 30},
		writers:   []func(w *linearize.Proc[int64, int64]){func(w *linearize.Proc[int64, int64]) { w.Delete(20) }},
		points:    scanPoints,
		states:    [][]int64{{10, 20, 30}, {10, 30}},
		schedules: 1710,
	},
	{
		// The token moves from 30 to 5, behind a scanner that has passed 5:
		// a walk validating key by key could emit {10} alone, which the
		// window never held. The writer's freezing CASes are decisions too.
		name:      "insert-behind-delete-ahead",
		newTree:   newEBST,
		setup:     []int64{10, 30},
		writers:   []func(w *linearize.Proc[int64, int64]){func(w *linearize.Proc[int64, int64]) { w.Insert(5, -5); w.Delete(30) }},
		points:    pointSet(sched.PointScanWalk, sched.PointLLX, sched.PointSCXFreeze, sched.PointSCXUpdate),
		states:    [][]int64{{10, 30}, {5, 10, 30}, {5, 10}},
		schedules: 35368,
	},
	{
		// On the relaxed AVL tree the third insert is followed by a
		// rebalancing step, which replaces internal nodes the walk may have
		// passed or be about to load without changing the key set.
		name:      "insert-with-rebalance",
		newTree:   newRAVL,
		setup:     []int64{10, 20},
		writers:   []func(w *linearize.Proc[int64, int64]){func(w *linearize.Proc[int64, int64]) { w.Insert(30, -30) }},
		points:    scanPoints,
		states:    [][]int64{{10, 20}, {10, 20, 30}},
		schedules: 893,
	},
	twoWriterRow,
	helperRow,
}

// liveScanWindow explores one row and returns how often each emitted set
// was seen.
func liveScanWindow(row liveScanRow, maxSchedules int, stopOnViolation bool) (schedules int, violations []sched.Violation, seen map[string]int) {
	seen = map[string]int{}
	schedules, violations = sched.Explore(sched.Options{
		Points:          row.points,
		MaxSchedules:    maxSchedules,
		StopOnViolation: stopOnViolation,
	}, func(c *sched.Controller) error {
		m := row.newTree()
		rec := linearize.NewRecorder[int64, int64](m)
		setup := rec.Proc()
		for _, k := range row.setup {
			setup.Insert(k, -k)
		}
		rt, balanced := m.(*ravl.Tree[int64, int64])
		var stepsBefore int64
		if balanced {
			stepsBefore = rt.Stats().RebalanceTotal()
		}
		// Keep every node retired from here on, so the cut can be read back
		// once the window is over.
		pin := epoch.SnapPin()
		defer pin.Release()
		for i, wr := range row.writers {
			w := rec.Proc()
			c.Go(fmt.Sprintf("write-%d", i), func() { wr(w) })
		}
		scanner := rec.Proc()
		c.Go("scan", func() { scanner.Scan(1, 35) })
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
		tree := m.(interface{ KeysAt(uint64) []int64 })
		if cut := tree.KeysAt(0); !slices.Equal(emitted, cut) {
			return fmt.Errorf("scan emitted %v, not the cut %v at its version", emitted, cut)
		}
		if !slices.ContainsFunc(row.states, func(s []int64) bool { return slices.Equal(s, emitted) }) {
			return fmt.Errorf("scan emitted %v, which the window held at no instant (states %v)", emitted, row.states)
		}
		seen[fmt.Sprint(emitted)]++
		return checkHistory(rec)
	})
	return schedules, violations, seen
}

// TestLiveScanEnumeration: in every schedule of every row the scan emits
// exactly its cut, a state of the window, in a linearizable history.
func TestLiveScanEnumeration(t *testing.T) {
	for _, row := range liveScanRows {
		t.Run(row.name, func(t *testing.T) {
			schedules, violations, seen := liveScanWindow(row, 400000, false)
			if len(violations) > 0 {
				t.Fatalf("%d of %d schedules emit a torn cut or break linearizability; first:\nschedule %v\n%v",
					len(violations), schedules, violations[0].Schedule, violations[0].Err)
			}
			wantSchedules(t, schedules, row.schedules)
			// Every state must be reachable, or the window is not racing.
			if len(seen) != len(row.states) {
				t.Fatalf("%d schedules reached only the states %v of %v", schedules, seen, row.states)
			}
			t.Logf("%d schedules, every scan its cut and linearizable; emitted sets: %v", schedules, seen)
		})
	}
}

// TestLiveScanMutationsCaught seeds the three bugs that would let an update
// stamped with the tick a live scan covers land behind its walk, and
// requires a row to catch each: a scan that does not drain the publish
// windows (SkipScanDrain), a version clock read before the window opens
// (StampBeforeWindow), and a helper that opens its window where no capture
// looks (SkipHelperWindow). Each makes the scan miss a key of its own cut.
// (The healthy protocol passes the same rows above.)
func TestLiveScanMutationsCaught(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mutation sched.Mutation
		row      liveScanRow
		caught   int
	}{
		{"SkipScanDrain", sched.SkipScanDrain, twoWriterRow, 10},
		{"StampBeforeWindow", sched.StampBeforeWindow, twoWriterRow, 10},
		{"SkipHelperWindow", sched.SkipHelperWindow, helperRow, 5688},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched.SetMutation(tc.mutation, true)
			defer sched.SetMutation(tc.mutation, false)
			schedules, violations, _ := liveScanWindow(tc.row, 400000, true)
			if len(violations) == 0 {
				t.Fatalf("mutation not caught in %d schedules: the enumeration has no teeth", schedules)
			}
			msg := violations[0].Err.Error()
			if !strings.Contains(msg, "not the cut") {
				t.Fatalf("violation is not a scan that missed its cut:\n%s", msg)
			}
			wantSchedules(t, schedules, tc.caught)
			t.Logf("caught after %d schedules, schedule %v:\n%s", schedules, violations[0].Schedule, msg)
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
// node the deletion writes to is one the walk passes. A query that reads the
// live tree instead of a cut answers with the row's never key when both
// updates fall between its two descents. An absent key's Predecessor search
// ends at the predecessor itself unless a router between the two outlived
// its key, so that row's setup inserts 32 and deletes it again, which leaves
// 32 routing at the root: ((10 (20 30)) 32 (40 50)) against
// ((10 20) 30 ((30 40) 50)). The unbounded rows put both updates on the
// spine Min and Max descend, which read the live tree and take the first
// leaf they reach. Neither writer's update needs a rebalancing step in these
// shapes (each insertion lands below a node of weight one, each deletion
// removes a leaf below a red one).
//
// The decisions are every child load of the query's two descents, the
// writer's LLXs, and the points just before and just after each of its
// update CASes, which park an SCX with its records frozen or with its new
// subtree installed and the SCX not yet committed while the query captures
// and walks.
type neighborRow struct {
	name   string
	setup  []int64 // inserted in order; a negative entry deletes the key
	writer func(w *linearize.Proc[int64, int64])
	query  func(m dict.OrderedMap[int64, int64]) (k, v int64, ok bool)
	// states are the query's answers over the writer's history, never the
	// answer of a query that saw the second update without the first.
	states []int64
	never  int64
	// schedules is the row's count, and caught the schedule at which a
	// bounded row catches SkipNeighborCut.
	schedules, caught int
}

var neighborRows = []neighborRow{
	{
		name:      "predecessor",
		setup:     []int64{10, 20, 40, 32, 50, 30, -32},
		writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(34, -34); w.Delete(30) },
		query:     func(m dict.OrderedMap[int64, int64]) (int64, int64, bool) { return m.Predecessor(35) },
		states:    []int64{30, 34},
		never:     20,
		schedules: 66109, caught: 76,
	},
	{
		name:      "successor",
		setup:     []int64{10, 20, 30, 50, 40},
		writer:    func(w *linearize.Proc[int64, int64]) { w.Insert(26, -26); w.Delete(30) },
		query:     func(m dict.OrderedMap[int64, int64]) (int64, int64, bool) { return m.Successor(25) },
		states:    []int64{30, 26},
		never:     40,
		schedules: 69528, caught: 76,
	},
	{
		name:   "max",
		setup:  []int64{10, 20, 30, 50, 40},
		writer: func(w *linearize.Proc[int64, int64]) { w.Insert(60, -60); w.Delete(50) },
		query: func(m dict.OrderedMap[int64, int64]) (int64, int64, bool) {
			return m.(interface{ Max() (int64, int64, bool) }).Max()
		},
		states:    []int64{50, 60},
		never:     40,
		schedules: 10899,
	},
	{
		name:   "min",
		setup:  []int64{10, 20, 40, 32, 50, 30, -32},
		writer: func(w *linearize.Proc[int64, int64]) { w.Insert(5, -5); w.Delete(10) },
		query: func(m dict.OrderedMap[int64, int64]) (int64, int64, bool) {
			return m.(interface{ Min() (int64, int64, bool) }).Min()
		},
		states:    []int64{10, 5},
		never:     20,
		schedules: 10899,
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
		Points:          pointSet(sched.PointLLX, sched.PointSCXUpdate, sched.PointScanWalk, sched.PointSCXCommit),
		MaxSchedules:    neighborCap,
		StopOnViolation: stopOnViolation,
	}, func(c *sched.Controller) error {
		m := factory.New().(dict.OrderedMap[int64, int64])
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

// TestNeighborMutationCaught arms SkipNeighborCut, a bounded query that
// walks the live tree instead of capturing a cut, and requires the bounded
// rows to catch it on both sides with the answer their comment predicts.
// (The healthy protocol passes the same enumeration above; Min and Max read
// the live tree already.)
func TestNeighborMutationCaught(t *testing.T) {
	for _, row := range neighborRows[:2] {
		t.Run(row.name, func(t *testing.T) {
			sched.SetMutation(sched.SkipNeighborCut, true)
			defer sched.SetMutation(sched.SkipNeighborCut, false)
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
