package llxscx

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

// TestLLXTagChangedBetweenReads is the row of TestLLXInEveryRecordState that
// takes the deterministic scheduler: an SCX that commits on the record while
// an LLX is parked between its reads of the fields and its second read of
// the tag. An LLX split at that point and an SCX in one piece interleave in
// three ways, and each has its own outcome: the SCX last, and the LLX
// snapshots the record as it was; the SCX first, and it snapshots the record
// as the SCX left it; the SCX in between, and the LLX fails with nothing,
// and succeeds when tried again.
func TestLLXTagChangedBetweenReads(t *testing.T) {
	for _, ep := range llxEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			var before, failed, after int
			schedules, violations := sched.Explore(sched.Options{
				Points: func(id sched.PointID) bool { return id == sched.PointLLXRecheck },
			}, func(c *sched.Controller) error {
				oldLeft, right, newLeft := newTNode(1, nil, nil), newTNode(3, nil, nil), newTNode(9, nil, nil)
				n := newTNode(2, oldLeft, right)
				// Linked here, not by the worker: the worker is then one step.
				lk, _ := LLX(n)
				var (
					c0, c1 *tnode
					tag    uint64
					st     Status
				)
				c.Go("llx", func() { c0, c1, tag, st = ep.llx(n) })
				c.Go("scx", func() {
					if !scxFixed([]Linked[tnode]{lk}, nil, &n.left, oldLeft, newLeft) {
						panic("SCX failed")
					}
				})
				if err := c.Run(); err != nil {
					return err
				}
				newTag := n.rec.r.info.Load()
				switch {
				case st == Snapshot && c0 == oldLeft && c1 == right && tag == lk.ev.info:
					before++
				case st == Snapshot && c0 == newLeft && c1 == right && tag == newTag:
					after++
				case st == Fail && c0 == nil && c1 == nil && tag == 0:
					failed++
					if c0, _, tag, st := ep.llx(n); st != Snapshot || c0 != newLeft || tag != newTag {
						return fmt.Errorf("second LLX = %v (%p, tag %#x), want a snapshot of (%p, tag %#x)", st, c0, tag, newLeft, newTag)
					}
				default:
					return fmt.Errorf("LLX = %v (%p, %p, tag %#x): neither snapshot nor a bare Fail", st, c0, c1, tag)
				}
				return nil
			})
			for _, v := range violations {
				t.Errorf("schedule %v: %v", v.Schedule, v.Err)
			}
			if schedules != 3 || before != 1 || failed != 1 || after != 1 {
				t.Fatalf("%d schedules: %d snapshots of the record before the SCX, %d failures, %d snapshots after; want 3 schedules and one of each",
					schedules, before, failed, after)
			}
		})
	}
}
