package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// defaultMaxSteps bounds the scheduling decisions of one run so a mutation
// that destroys lock-freedom (operations retrying forever) surfaces as an
// error instead of a hang.
const defaultMaxSteps = 100000

// A Controller runs a set of operations one at a time, deciding at every
// instrumented point (Point) which operation runs next. A zero Controller
// is not usable; Explore constructs controllers, one per schedule.
//
// The decision sequence is deterministic: at each step the runnable workers
// form an ordered list (Go order, finished workers removed), and the
// controller picks the index given by its replay prefix, defaulting to 0
// past the prefix's end. Recording the branching factor at each step lets
// Explore enumerate all schedules depth-first.
//
// One driver at a time: during Run no goroutine but the released worker may
// cross a point (whoever does is taken for it), and no chaos worker may be
// registered. The library starts no goroutine of its own that could cross
// one: a stalled epoch pin is evicted by an operation's own Retire.
type Controller struct {
	filter   func(PointID) bool
	maxSteps int

	prefix   []int // decisions to replay
	taken    []int // decisions actually made this run
	branches []int // runnable-worker count at each decision
	trace    []string

	workers []*Worker
	events  chan event
	ran     bool
}

type event struct {
	w        *Worker
	parked   bool // else finished
	point    PointID
	panicked any
}

// Go adds fn as the next worker, which pins the next epoch slot (Slot). It
// does not run until Run schedules it. All Go calls must precede Run.
func (c *Controller) Go(name string, fn func()) {
	if c.ran {
		panic("sched: Controller.Go after Run")
	}
	w := &Worker{c: c, name: name, slot: len(c.workers), fn: fn, resume: make(chan struct{})}
	c.workers = append(c.workers, w)
}

// park suspends the calling worker at point id until the controller
// schedules it again. Called from Point.
func (w *Worker) park(id PointID) {
	w.c.events <- event{w: w, parked: true, point: id}
	<-w.resume
}

// Run executes every operation to completion under the controller's
// schedule and returns an error if a worker panicked, the step bound was
// exceeded or the replay diverged from its prefix; it returns one, having
// run nothing, if chaos workers are registered. Call it once, after Go.
func (c *Controller) Run() error {
	if c.ran {
		panic("sched: Controller.Run called twice")
	}
	c.ran = true
	if n := atomic.LoadInt32(&registered); n != 0 {
		return fmt.Errorf("sched: Run with %d chaos workers registered (one driver at a time)", n)
	}
	controlled.Store(true)
	atomic.AddInt32(&registered, 1)
	defer controlled.Store(false)
	defer atomic.AddInt32(&registered, -1)
	c.events = make(chan event, len(c.workers))
	for _, w := range c.workers {
		go func() {
			<-w.resume
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				w.fn()
			}()
			c.events <- event{w: w, panicked: panicked}
		}()
	}

	maxSteps := c.maxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	runnable := slices.Clone(c.workers)
	eligible := make([]int, 0, len(runnable))
	var err error
	for len(runnable) > 0 {
		if len(c.taken) >= maxSteps {
			err = fmt.Errorf("sched: schedule exceeded %d steps (livelock under this interleaving?)", maxSteps)
			c.abandon(runnable)
			break
		}
		// Wait-blocked workers (parked in WaitUntil with a false predicate)
		// are not schedulable: the decision is made among the eligible ones.
		// The predicates read only state the schedule determines, so replay
		// sees the same eligible sets and stays deterministic.
		eligible := eligible[:0]
		for i, w := range runnable {
			if w.ready == nil || w.ready() {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			err = fmt.Errorf("sched: all %d remaining workers wait-blocked (deadlock under this interleaving)", len(runnable))
			c.abandon(runnable)
			break
		}
		n := len(eligible)
		choice := 0
		if d := len(c.taken); d < len(c.prefix) {
			if choice = c.prefix[d]; choice >= n {
				err = fmt.Errorf("sched: replay diverged at decision %d: the prefix chooses worker %d of %d eligible", d, choice, n)
				c.abandon(runnable)
				break
			}
		}
		c.taken = append(c.taken, choice)
		c.branches = append(c.branches, n)
		idx := eligible[choice]
		w := runnable[idx]
		running.Store(w)
		w.resume <- struct{}{}
		ev := <-c.events
		running.Store(nil)
		if ev.parked {
			c.trace = append(c.trace, fmt.Sprintf("%s parked at %s", ev.w.name, ev.point))
			continue
		}
		c.trace = append(c.trace, fmt.Sprintf("%s finished", ev.w.name))
		runnable = slices.Delete(runnable, idx, idx+1)
		if ev.panicked != nil && err == nil {
			err = fmt.Errorf("sched: worker %s panicked: %v", ev.w.name, ev.panicked)
		}
	}
	return err
}

// abandon releases every still-parked worker and lets them run freely (and
// concurrently) to completion: with none running, points pass through and
// waits spin. Used when a run trips the step bound or diverges; determinism
// is already lost, the goal is only not to leak blocked goroutines.
func (c *Controller) abandon(runnable []*Worker) {
	running.Store(nil)
	for _, w := range runnable {
		w.resume <- struct{}{}
	}
	for left := len(runnable); left > 0; {
		if ev := <-c.events; !ev.parked {
			left--
		}
	}
}

// Schedule returns the decision sequence of the completed run.
func (c *Controller) Schedule() []int { return slices.Clone(c.taken) }

// Trace returns a human-readable step log of the completed run.
func (c *Controller) Trace() []string { return slices.Clone(c.trace) }

// Options configures Explore.
type Options struct {
	// Points restricts which instrumented steps become scheduling
	// decisions; nil admits all of them. Restricting the set is the main
	// lever for keeping an enumeration's schedule count tractable.
	Points func(PointID) bool
	// MaxSchedules bounds the number of schedules explored (0 = no bound).
	MaxSchedules int
	// MaxSteps bounds the decisions of a single run (0 = a large default).
	MaxSteps int
	// StopOnViolation stops the enumeration at the first violating
	// schedule instead of collecting all of them.
	StopOnViolation bool
}

// A Violation is one schedule under which the body reported an error.
type Violation struct {
	Schedule []int
	Trace    []string
	Err      error
}

// exploreMu serializes explorations process-wide: the seeded mutations are
// global, so an enumeration that arms one must not overlap another that
// expects the healthy protocol.
var exploreMu sync.Mutex

// Explore enumerates schedules of the operation set constructed by body.
// body is called once per schedule with a fresh Controller; it must
// register its operations with Go, call Run, check whatever invariants it
// cares about (typically by running the recorded history through
// internal/linearize) and return nil or a violation error. Explore performs
// a depth-first search over the scheduling decisions: the first run takes
// the all-zeros schedule, and each next run replays the longest prefix that
// still has an untried alternative. It returns the number of schedules run
// and the violations found.
//
// body must construct a fresh instance of the data under test on every
// call: schedules replay from scratch, not from snapshots.
func Explore(opts Options, body func(c *Controller) error) (schedules int, violations []Violation) {
	exploreMu.Lock()
	defer exploreMu.Unlock()
	var prefix []int
	for {
		c := &Controller{filter: opts.Points, maxSteps: opts.MaxSteps, prefix: prefix}
		err := body(c)
		schedules++
		if err != nil {
			violations = append(violations, Violation{
				Schedule: c.Schedule(),
				Trace:    c.Trace(),
				Err:      err,
			})
			if opts.StopOnViolation {
				return schedules, violations
			}
		}
		if opts.MaxSchedules > 0 && schedules >= opts.MaxSchedules {
			return schedules, violations
		}
		prefix = nextPrefix(c.taken, c.branches)
		if prefix == nil {
			return schedules, violations
		}
	}
}

// nextPrefix computes the depth-first successor of a completed run's
// decision sequence: the longest prefix whose last decision still has an
// untried alternative, with that decision incremented.
func nextPrefix(taken, branches []int) []int {
	for i := len(taken) - 1; i >= 0; i-- {
		if taken[i]+1 < branches[i] {
			out := slices.Clone(taken[:i])
			return append(out, taken[i]+1)
		}
	}
	return nil
}
