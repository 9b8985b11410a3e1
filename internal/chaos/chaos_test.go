package chaos

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// skipUnderSched skips chaos tests in the `-tags sched` build, where arming
// is deliberately inert (the deterministic controller owns the points).
func skipUnderSched(t *testing.T) {
	t.Helper()
	if sched.Enabled {
		t.Skip("chaos injection is disabled under -tags sched")
	}
}

// crossAll drives every instrumentation point n times through the armed
// hook on the calling goroutine.
func crossAll(n int) {
	for i := 0; i < n; i++ {
		for p := 0; p < sched.NumPoints; p++ {
			sched.Point(sched.PointID(p))
		}
	}
}

// TestSeededDeterminism pins the replay contract: the same (seed, worker
// id, point sequence) produces the same injection counts.
func TestSeededDeterminism(t *testing.T) {
	skipUnderSched(t)
	run := func() Stats {
		if err := Enable(Config{Seed: 42, Default: PointPolicy{Delay: 40_000, Preempt: 40_000}, DelaySpins: 1}); err != nil {
			t.Fatal(err)
		}
		defer Disable()
		w := Register(7)
		defer w.Close()
		crossAll(2_000)
		return ReadStats()
	}
	a := run()
	b := run()
	if a == (Stats{}) {
		t.Fatal("no injections at 4% rates over 24k crossings")
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if err := Enable(Config{Seed: 43, Default: PointPolicy{Delay: 40_000, Preempt: 40_000}, DelaySpins: 1}); err != nil {
		t.Fatal(err)
	}
	w := Register(7)
	crossAll(2_000)
	c := ReadStats()
	w.Close()
	Disable()
	if a == c {
		t.Fatalf("different seeds produced identical stats %+v (suspicious RNG wiring)", a)
	}
}

// TestUnregisteredGoroutineUntouched: arming chaos must not perturb
// goroutines that never registered.
func TestUnregisteredGoroutineUntouched(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{Seed: 1, Default: PointPolicy{Panic: 1_000_000}}); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	crossAll(50) // would panic on the first crossing if the roll applied
	if s := ReadStats(); s.Panics != 0 {
		t.Fatalf("unregistered goroutine drew %d panics", s.Panics)
	}
}

// TestPanicInjectionAndExclusion: a certain-panic policy fires at an
// allowed point with the typed value, and never fires at the excluded
// bracket-interior points even when explicitly requested.
func TestPanicInjectionAndExclusion(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{
		Seed:    9,
		Default: PointPolicy{Panic: 1_000_000},
	}); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	w := Register(0)
	defer w.Close()

	for p := 0; p < sched.NumPoints; p++ {
		id := sched.PointID(p)
		func() {
			defer func() {
				r := recover()
				if excluded[p] {
					if r != nil {
						t.Fatalf("panic injected at excluded point %v: %v", id, r)
					}
					return
				}
				pv, ok := r.(Panic)
				if !ok {
					t.Fatalf("point %v: recovered %#v, want chaos.Panic", id, r)
				}
				if pv.Point != id {
					t.Fatalf("panic value names point %v, fired at %v", pv.Point, id)
				}
			}()
			sched.Point(id)
		}()
	}
}

// TestAbandonReleaseAndCap: abandoned workers park until released, and the
// MaxAbandoned cap keeps survivors running.
func TestAbandonReleaseAndCap(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{
		Seed:         5,
		Default:      PointPolicy{Abandon: 1_000_000},
		MaxAbandoned: 2,
	}); err != nil {
		t.Fatal(err)
	}
	defer Disable()

	const workers = 5
	var through atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Register(i)
			defer w.Close()
			// With Abandon at 100% and a cap of 2, exactly two of these
			// crossings park; the other three fall through the cap check
			// and return immediately.
			sched.Point(sched.PointLLX)
			through.Add(1)
		}(i)
	}
	for AbandonedCount() != 2 || through.Load() != workers-2 {
		// Yield until the two winners are counted and the three losers are
		// through: one still short of its crossing when the winners are
		// released would find room under the cap and park for good.
		runtime.Gosched()
	}
	if n := AbandonedCount(); n != 2 {
		t.Fatalf("AbandonedCount() = %d, want cap 2", n)
	}
	ReleaseAbandoned()
	wg.Wait()
	if n := AbandonedCount(); n != 0 {
		t.Fatalf("AbandonedCount() = %d after release", n)
	}
	if s := ReadStats(); s.Abandons != 2 {
		t.Fatalf("Abandons = %d, want 2", s.Abandons)
	}
}

// TestDisableReleasesParked: Disable must wake parked workers itself so a
// run cannot leak goroutines.
func TestDisableReleasesParked(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{Seed: 5, Default: PointPolicy{Abandon: 1_000_000}, MaxAbandoned: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := Register(0)
		defer w.Close()
		sched.Point(sched.PointSCXFreeze)
	}()
	for AbandonedCount() != 1 {
		runtime.Gosched()
	}
	Disable()
	wg.Wait() // would hang if Disable left the worker parked
	if Armed() {
		t.Fatal("Armed() after Disable")
	}
}

// TestDropHelp: the drop-help roll honours its rate and counts drops.
func TestDropHelp(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{Seed: 3, DropHelp: 500_000}); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	w := Register(0)
	defer w.Close()
	drops := 0
	const n = 4_000
	for i := 0; i < n; i++ {
		if sched.ChaosDropHelp() {
			drops++
		}
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("drop-help fired %d/%d times at a 50%% rate", drops, n)
	}
	if s := ReadStats(); int(s.DropHelps) != drops {
		t.Fatalf("DropHelps stat %d != observed %d", s.DropHelps, drops)
	}
}

// TestDoubleEnable: a second Enable while a run is active errors instead of
// clobbering the active policy table.
func TestDoubleEnable(t *testing.T) {
	skipUnderSched(t)
	if err := Enable(Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	if err := Enable(Config{Seed: 2}); err == nil {
		t.Fatal("second Enable succeeded")
	}
}
