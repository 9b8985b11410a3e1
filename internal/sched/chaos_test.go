package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// crossAll crosses every instrumentation point n times on the calling
// goroutine.
func crossAll(n int) {
	for i := 0; i < n; i++ {
		for p := PointID(0); p < numPoints; p++ {
			Point(p)
		}
	}
}

// TestSeededDeterminism pins the replay contract: the same (seed, worker
// id, point sequence) produces the same injection counts.
func TestSeededDeterminism(t *testing.T) {
	run := func() ChaosStats {
		if err := EnableChaos(ChaosConfig{Seed: 42, Default: ChaosPolicy{Delay: 40_000, Preempt: 40_000}, DelaySpins: 1}); err != nil {
			t.Fatal(err)
		}
		defer DisableChaos()
		w := RegisterChaos(7)
		defer w.Close()
		crossAll(2_000)
		return ReadChaosStats()
	}
	a := run()
	b := run()
	if a == (ChaosStats{}) {
		t.Fatal("no injections at 4% rates over 24k crossings")
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if err := EnableChaos(ChaosConfig{Seed: 43, Default: ChaosPolicy{Delay: 40_000, Preempt: 40_000}, DelaySpins: 1}); err != nil {
		t.Fatal(err)
	}
	w := RegisterChaos(7)
	crossAll(2_000)
	c := ReadChaosStats()
	w.Close()
	DisableChaos()
	if a == c {
		t.Fatalf("different seeds produced identical stats %+v (suspicious RNG wiring)", a)
	}
}

// TestUnregisteredGoroutineUntouched: arming chaos must not perturb
// goroutines that never registered.
func TestUnregisteredGoroutineUntouched(t *testing.T) {
	if err := EnableChaos(ChaosConfig{Seed: 1, Default: ChaosPolicy{Panic: 1_000_000}}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	crossAll(50) // would panic on the first crossing if the roll applied
	if s := ReadChaosStats(); s.Panics != 0 {
		t.Fatalf("unregistered goroutine drew %d panics", s.Panics)
	}
}

// TestPanicInjectionAndExclusion: a certain-panic policy fires at an
// allowed point with the typed value, and never fires at the excluded
// bracket-interior points even when explicitly requested.
func TestPanicInjectionAndExclusion(t *testing.T) {
	if err := EnableChaos(ChaosConfig{
		Seed:    9,
		Default: ChaosPolicy{Panic: 1_000_000},
	}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	w := RegisterChaos(0)
	defer w.Close()

	for id := PointID(0); id < numPoints; id++ {
		func() {
			defer func() {
				r := recover()
				if points[id].bracket {
					if r != nil {
						t.Fatalf("panic injected at excluded point %v: %v", id, r)
					}
					return
				}
				pv, ok := r.(ChaosPanic)
				if !ok {
					t.Fatalf("point %v: recovered %#v, want ChaosPanic", id, r)
				}
				if pv.Point != id {
					t.Fatalf("panic value names point %v, fired at %v", pv.Point, id)
				}
			}()
			Point(id)
		}()
	}
}

// TestAbandonReleaseAndCap: abandoned workers park until released, and the
// MaxAbandoned cap keeps survivors running.
func TestAbandonReleaseAndCap(t *testing.T) {
	if err := EnableChaos(ChaosConfig{
		Seed:         5,
		Default:      ChaosPolicy{Abandon: 1_000_000},
		MaxAbandoned: 2,
	}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()

	const workers = 5
	var through atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := RegisterChaos(i)
			defer w.Close()
			// With Abandon at 100% and a cap of 2, exactly two of these
			// crossings park; the other three fall through the cap check
			// and return immediately.
			Point(PointLLX)
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
	if s := ReadChaosStats(); s.Abandons != 2 {
		t.Fatalf("Abandons = %d, want 2", s.Abandons)
	}
}

// TestDisableReleasesParked: Disable must wake parked workers itself so a
// run cannot leak goroutines.
func TestDisableReleasesParked(t *testing.T) {
	if err := EnableChaos(ChaosConfig{Seed: 5, Default: ChaosPolicy{Abandon: 1_000_000}, MaxAbandoned: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := RegisterChaos(0)
		defer w.Close()
		Point(PointSCXFreeze)
	}()
	for AbandonedCount() != 1 {
		runtime.Gosched()
	}
	DisableChaos()
	wg.Wait() // would hang if Disable left the worker parked
	if activeRun.Load() != nil {
		t.Fatal("a run is still active after DisableChaos")
	}
}

// TestDropHelp: the drop-help roll honours its rate and counts drops.
func TestDropHelp(t *testing.T) {
	if err := EnableChaos(ChaosConfig{Seed: 3, DropHelp: 500_000}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	w := RegisterChaos(0)
	defer w.Close()
	drops := 0
	const n = 4_000
	for i := 0; i < n; i++ {
		if ChaosDropHelp() {
			drops++
		}
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("drop-help fired %d/%d times at a 50%% rate", drops, n)
	}
	if s := ReadChaosStats(); int(s.DropHelps) != drops {
		t.Fatalf("DropHelps stat %d != observed %d", s.DropHelps, drops)
	}
}

// TestDoubleEnable: a second EnableChaos while a run is active errors instead of
// clobbering the active policy table.
func TestDoubleEnable(t *testing.T) {
	if err := EnableChaos(ChaosConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	defer DisableChaos()
	if err := EnableChaos(ChaosConfig{Seed: 2}); err == nil {
		t.Fatal("second EnableChaos succeeded")
	}
}
