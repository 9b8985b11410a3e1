package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestPointOutsideControllerIsPassThrough: an unmanaged goroutine must not
// block at a point even while a controller is conceptually in scope.
func TestPointOutsideControllerIsPassThrough(t *testing.T) {
	Point(PointLLX) // no controller at all
	var c Controller
	c.Go("noop", func() {})
	done := make(chan struct{})
	c.Go("harness-check", func() {
		close(done)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	<-done
	Point(PointSCXCommit) // still pass-through after Run
}

// TestExploreEnumeratesLostUpdateWindow drives the canonical two-worker
// racy counter: each worker reads a shared variable, crosses one point, and
// writes back the increment. The schedule space is the 6 interleavings of
// two 2-segment workers; exactly the 4 schedules where both reads precede
// both writes lose an update. This pins down both the enumeration count and
// the violation count, i.e. that Explore visits each interleaving once.
func TestExploreEnumeratesLostUpdateWindow(t *testing.T) {
	lost := errors.New("lost update")
	schedules, violations := Explore(Options{}, func(c *Controller) error {
		x := 0
		for w := 0; w < 2; w++ {
			c.Go(fmt.Sprintf("inc%d", w), func() {
				tmp := x
				Point(PointLLX)
				x = tmp + 1
			})
		}
		if err := c.Run(); err != nil {
			return err
		}
		if x != 2 {
			return lost
		}
		return nil
	})
	if schedules != 6 {
		t.Fatalf("explored %d schedules, want 6", schedules)
	}
	if len(violations) != 4 {
		t.Fatalf("found %d violations, want 4", len(violations))
	}
	for _, v := range violations {
		if !errors.Is(v.Err, lost) {
			t.Fatalf("unexpected violation error: %v", v.Err)
		}
		if len(v.Trace) == 0 || len(v.Schedule) == 0 {
			t.Fatalf("violation missing schedule/trace: %+v", v)
		}
	}
}

// TestExploreIsDeterministic: re-running the same enumeration must visit
// the same schedules and find the same violations.
func TestExploreIsDeterministic(t *testing.T) {
	run := func() (int, int) {
		s, v := Explore(Options{}, func(c *Controller) error {
			x := 0
			for w := 0; w < 3; w++ {
				c.Go(fmt.Sprintf("w%d", w), func() {
					tmp := x
					Point(PointSCXFreeze)
					x = tmp + 1
				})
			}
			if err := c.Run(); err != nil {
				return err
			}
			if x != 3 {
				return fmt.Errorf("x = %d", x)
			}
			return nil
		})
		return s, len(v)
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 || v1 != v2 {
		t.Fatalf("enumeration not deterministic: (%d,%d) vs (%d,%d)", s1, v1, s2, v2)
	}
	// Three 2-segment workers: 6!/(2!2!2!) = 90 interleavings.
	if s1 != 90 {
		t.Fatalf("explored %d schedules, want 90", s1)
	}
}

// TestPointFilterPrunesDecisions: filtering the point set must shrink the
// schedule space to the interleavings of the admitted points only.
func TestPointFilterPrunesDecisions(t *testing.T) {
	only := func(p PointID) bool { return p == PointSCXCommit }
	schedules, violations := Explore(Options{Points: only}, func(c *Controller) error {
		for w := 0; w < 2; w++ {
			c.Go(fmt.Sprintf("w%d", w), func() {
				Point(PointLLX)     // filtered: runs through
				Point(PointSCXMark) // filtered: runs through
				Point(PointSCXCommit)
			})
		}
		return c.Run()
	})
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if schedules != 6 {
		t.Fatalf("explored %d schedules, want 6 (two 2-segment workers)", schedules)
	}
}

// TestStepBoundAbandonsRun: a worker with more points than MaxSteps trips
// the bound; Run must report it and still drain the workers rather than
// leak them blocked.
func TestStepBoundAbandonsRun(t *testing.T) {
	c := Controller{maxSteps: 10}
	ran := 0
	c.Go("spinner", func() {
		for i := 0; i < 64; i++ {
			Point(PointLLX)
			ran++
		}
	})
	err := c.Run()
	if err == nil {
		t.Fatal("step bound not reported")
	}
	t.Logf("got expected error: %v", err)
	if ran != 64 {
		t.Fatalf("worker did not run to completion after abandon: %d/64", ran)
	}
}

// TestStepBoundConfigured exercises Options.MaxSteps through Explore.
func TestStepBoundConfigured(t *testing.T) {
	schedules, violations := Explore(Options{MaxSteps: 8, MaxSchedules: 4}, func(c *Controller) error {
		c.Go("spinner", func() {
			for i := 0; i < 64; i++ {
				Point(PointLLX)
			}
		})
		return c.Run()
	})
	// One worker has one schedule, and it trips the bound.
	if schedules != 1 || len(violations) != 1 {
		t.Fatalf("want the one schedule to trip the bound: %d schedules, %d violations", schedules, len(violations))
	}
}

// TestReplayDivergenceFails: a prefix that chooses a worker the run does not
// offer is an error naming the decision, not a choice to clamp, and the
// workers still run to completion.
func TestReplayDivergenceFails(t *testing.T) {
	c := Controller{prefix: []int{1, 1}}
	done := 0
	for _, name := range []string{"a", "b"} {
		c.Go(name, func() { done++ })
	}
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "decision 1") {
		t.Fatalf("Run = %v, want divergence at decision 1", err)
	}
	if done != 2 {
		t.Fatalf("%d of 2 workers finished", done)
	}
}

// TestWorkerPanicReported: a panicking worker must surface as an error, not
// crash the process or hang the run.
func TestWorkerPanicReported(t *testing.T) {
	var c Controller
	c.Go("bomb", func() { panic("boom") })
	err := c.Run()
	if err == nil {
		t.Fatal("panic not reported")
	}
}

// TestNextPrefix pins the DFS successor function.
func TestNextPrefix(t *testing.T) {
	cases := []struct {
		taken, branches, want []int
	}{
		{[]int{0, 0}, []int{2, 2}, []int{0, 1}},
		{[]int{0, 1}, []int{2, 2}, []int{1}},
		{[]int{1, 1}, []int{2, 2}, nil},
		{[]int{0, 0, 0}, []int{1, 3, 1}, []int{0, 1}},
		{nil, nil, nil},
	}
	for _, tc := range cases {
		got := nextPrefix(tc.taken, tc.branches)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("nextPrefix(%v, %v) = %v, want %v", tc.taken, tc.branches, got, tc.want)
		}
	}
}
