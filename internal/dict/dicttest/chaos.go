package dicttest

import (
	"cmp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/linearize"
	"repro/internal/sched"
)

// This file holds the chaos-mode stress suites: writers churning one shared
// key window, as in SharedKeyStress, but run with runtime fault injection
// armed (internal/sched's chaos driver), every operation recorded for
// linearizability checking. Two suites cover the two failure families the
// robustness work targets:
//
//   - ChaosChurnStress: delays, preemption, dropped optional helping and
//     abandoned (indefinitely parked) workers. Operations must all complete
//     once parked workers are released, the history must linearize, and
//     Retire's stall detection must evict a parked worker's stale pin that
//     outlasts the epoch layer's stall bound.
//
//   - ChaosCrashStress: injected panics mid-operation. The panic unwinds
//     through an operation's deferred epoch unpin, so a crashed worker must
//     not wedge reclamation; the structure must remain fully usable and its
//     invariants intact afterwards.

// drainPending drives the epoch layer's pending count to zero, failing if
// it sticks. After a chaos run every worker has unpinned (or been released
// and then unpinned), so nothing may keep a retiree's grace period open
// forever. Nor may a publish window be left open: the windows are
// process-wide, so one that a crashed or parked worker never closed would
// wedge every later snapshot capture.
func drainPending(t *testing.T, d time.Duration) {
	t.Helper()
	if n := epoch.Stats().OpenWindows; n != 0 {
		t.Errorf("%d publish windows left open after chaos run", n)
	}
	deadline := time.Now().Add(d)
	for epoch.Drain() != 0 {
		if time.Now().After(deadline) {
			t.Errorf("epoch pending stuck at %d after chaos run (stats: %+v)", epoch.Pending(), epoch.Stats())
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// ChaosChurnStress hammers a shared key window with writers while chaos
// injection delays, preempts, abandons and de-helps them, with one scanning
// reader mixed in. Every operation goes through a linearizability recorder.
// A background releaser periodically wakes abandoned workers, so the
// workload always terminates; afterwards the suite asserts completion,
// linearizability, structure invariants, an eviction, and that epoch
// pending returns to zero. The window is the 16 keys key(1<<21),
// key(1<<21+3), ..., and writer w's i'th value is published(val, w, i); key
// and val must be injective.
func ChaosChurnStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, opsPerWriter int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	defer hangGuard(t, 2*time.Minute)()
	window := keyWindow(key, 1<<21, 16, 3)

	d := tgt.New()
	rec := linearize.NewRecorder(d)
	evictions := epoch.Stats().Evictions

	if err := sched.EnableChaos(sched.ChaosConfig{
		Seed:         int64(seed),
		Default:      sched.ChaosPolicy{Delay: 20000, Preempt: 20000, Abandon: 1500},
		DropHelp:     100000,
		MaxAbandoned: 2,
		DelaySpins:   128,
	}); err != nil {
		t.Fatal(err)
	}
	defer sched.DisableChaos()

	// Releaser: abandoned workers park until woken; waking them every tick
	// keeps the workload finite. The first tick that finds a worker parked
	// holds its release back past the stall bound: it retires on a tree of
	// its own until the retires evict the parked worker's pin (or 5 s pass).
	relStop := make(chan struct{})
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		held := false
		for {
			select {
			case <-relStop:
				return
			case <-tick.C:
				if !held && sched.ReadChaosStats().Abandons != 0 {
					held = true
					own := tgt.New()
					for i, deadline := uint64(0), time.Now().Add(5*time.Second); epoch.Stats().Evictions == evictions && time.Now().Before(deadline); i++ {
						own.Insert(key(i%64), val(i))
						own.Delete(key((i + 32) % 64))
					}
				}
				sched.ReleaseAbandoned()
			}
		}
	}()

	var completed atomic.Int64
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			cw := sched.RegisterChaos(w)
			defer cw.Close()
			p := rec.Proc()
			state := seed + uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPerWriter; i++ {
				k := window[lcg(&state)%uint64(len(window))]
				switch lcg(&state) % 4 {
				case 0, 1:
					p.Insert(k, published(val, w, i))
				case 2:
					p.Delete(k)
				default:
					p.Get(k)
				}
				completed.Add(1)
			}
		}(w)
	}

	// Scanning reader: its ScanSteps join the per-key histories, so a scan
	// observing a half-applied update would fail the linearizability check.
	// Passes are capped to keep the recorded history (and the checker's
	// search) bounded regardless of how long the writers take.
	scanStop := make(chan struct{})
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		cw := sched.RegisterChaos(writers)
		defer cw.Close()
		p := rec.Proc()
		lo, hi := window[0], window[len(window)-1]
		for pass := 0; pass < 400; pass++ {
			select {
			case <-scanStop:
				return
			default:
				p.Scan(lo, hi)
			}
		}
		<-scanStop
	}()

	writerWG.Wait()
	close(scanStop)
	scanWG.Wait()
	close(relStop)
	relWG.Wait()

	st := sched.ReadChaosStats() // before Disable: stats belong to the active run
	sched.DisableChaos()
	t.Logf("chaos stats: %+v", st)
	if st.Delays+st.Preempts == 0 {
		t.Error("no delays or preemptions injected; chaos run was inert")
	}
	if st.Abandons == 0 {
		t.Error("no workers abandoned; the parked-worker path was not exercised")
	}
	if epoch.Stats().Evictions == evictions {
		t.Errorf("no stalled pin evicted while a parked worker's release was held back (stats: %+v)", epoch.Stats())
	}
	if got, want := completed.Load(), int64(writers*opsPerWriter); got != want {
		t.Errorf("completed %d of %d operations", got, want)
	}

	if res := linearize.Check(rec.History()); !res.OK() {
		t.Errorf("history not linearizable under chaos:\n%s", res.Report())
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Errorf("invariant check after chaos churn: %v", err)
		}
	}
	drainPending(t, 10*time.Second)
}

// ChaosCrashStress runs the shared-window churn with panic injection
// armed: workers crash at random instrumentation points mid-operation and
// recover, relying on the operations' deferred epoch unpins to release
// their pins during unwinding. Afterwards the structure must be fully
// usable (a sequential model-checked pass over the window), its invariants
// must hold, and epoch pending must drain to zero. The window is the 16 keys
// key(1<<22), key(1<<22+3), ..., and worker w's i'th value is
// published(val, w, i); key and val must be injective.
func ChaosCrashStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], workers, opsPerWorker int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	defer hangGuard(t, 2*time.Minute)()
	window := keyWindow(key, 1<<22, 16, 3)

	d := tgt.New()

	if err := sched.EnableChaos(sched.ChaosConfig{
		Seed:       int64(seed),
		Default:    sched.ChaosPolicy{Delay: 10000, Preempt: 10000, Panic: 2000},
		DropHelp:   50000,
		DelaySpins: 128,
	}); err != nil {
		t.Fatal(err)
	}
	defer sched.DisableChaos()

	var crashes atomic.Int64
	var badPanic atomic.Pointer[any]
	// survive runs one operation, absorbing an injected panic. Any other
	// panic value is a real bug and is re-raised on the test goroutine.
	survive := func(fn func()) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sched.ChaosPanic); !ok {
					badPanic.CompareAndSwap(nil, &r)
					return
				}
				crashes.Add(1)
			}
		}()
		fn()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cw := sched.RegisterChaos(w)
			defer cw.Close()
			state := seed + uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPerWorker; i++ {
				k := window[lcg(&state)%uint64(len(window))]
				switch lcg(&state) % 4 {
				case 0, 1:
					survive(func() { d.Insert(k, published(val, w, i)) })
				case 2:
					survive(func() { d.Delete(k) })
				default:
					survive(func() { d.Get(k) })
				}
			}
		}(w)
	}
	wg.Wait()

	st := sched.ReadChaosStats()
	sched.DisableChaos()
	t.Logf("chaos stats: %+v (recovered crashes: %d)", st, crashes.Load())
	if p := badPanic.Load(); p != nil {
		t.Fatalf("worker panicked with a non-injected value: %v", *p)
	}
	if st.Panics == 0 {
		t.Error("no panics injected; the crash path was not exercised")
	}

	// Quiesce before model checking: a worker that panicked mid-SCX leaves
	// its SCX frozen in flight, and that crashed operation is PENDING in
	// history terms — its effect legitimately materializes whenever a later
	// operation helps it to completion. A model that snapshots the structure
	// now would be invalidated by that deferred effect (a crashed delete
	// completing under the model pass silently consumes a fresh overwrite).
	// Deleting every window key LLXes each leaf's neighborhood, which helps
	// any stalled SCX to completion, so the model pass below starts from a
	// quiesced structure with no pending operations left to materialize.
	for _, k := range window {
		d.Delete(k)
	}

	// Post-crash usability: with injection off, the survivors of the crash
	// storm must behave like a healthy dictionary. Run a deterministic
	// model-checked pass over the same window the crashes hit.
	md := newModel[K, V]()
	for _, k := range window {
		if v, ok := d.Get(k); ok {
			md.insert(k, v)
		}
	}
	for i, k := range window {
		v := published(val, workers, i) // worker id past every real worker: fresh values
		d.Insert(k, v)
		md.insert(k, v)
	}
	for i, k := range window {
		if i%2 == 0 {
			wantOld, wantEx := md.delete(k)
			gotOld, gotEx := d.Delete(k)
			if gotOld != wantOld || gotEx != wantEx {
				t.Fatalf("post-crash Delete(%v) = (%v, %v), model says (%v, %v)", k, gotOld, gotEx, wantOld, wantEx)
			}
		}
	}
	for _, k := range window {
		wantV, wantOK := md.get(k)
		gotV, gotOK := d.Get(k)
		if gotV != wantV || gotOK != wantOK {
			t.Fatalf("post-crash Get(%v) = (%v, %v), model says (%v, %v)", k, gotV, gotOK, wantV, wantOK)
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Errorf("invariant check after crash storm: %v", err)
		}
	}
	drainPending(t, 10*time.Second)
}
