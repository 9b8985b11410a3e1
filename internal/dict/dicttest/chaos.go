package dicttest

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/linearize"
	"repro/internal/sched"
)

// This file holds the chaos-mode stress suites: the same shared-window
// churn workloads as ChurnStressKV, but run with runtime fault injection
// armed (internal/sched's chaos driver) and every operation recorded for
// linearizability checking. Two suites cover the two failure families the
// robustness work targets:
//
//   - ChaosChurnStressKV: delays, preemption, dropped optional helping and
//     abandoned (indefinitely parked) workers. Operations must all complete
//     once parked workers are released, the history must linearize, and the
//     epoch watchdog must keep reclamation from wedging behind a parked
//     worker's stale pin.
//
//   - ChaosCrashStressKV: injected panics mid-operation. The panic unwinds
//     through an operation's deferred epoch unpin, so a crashed worker must
//     not wedge reclamation; the structure must remain fully usable and its
//     invariants intact afterwards.

// drainPending drives the epoch layer's pending count to zero, failing if
// it sticks. After a chaos run every worker has unpinned (or been released
// and then unpinned), so with the watchdog's help nothing may keep a
// retiree's grace period open forever. Nor may a publish window be left
// open: the windows are process-wide, so one that a crashed or parked worker
// never closed would wedge every later snapshot capture.
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

// ChaosChurnStressKV hammers a shared key window with writers while chaos
// injection delays, preempts, abandons and de-helps them, with one scanning
// reader mixed in. Every operation goes through a linearizability recorder.
// A background releaser periodically wakes abandoned workers (the epoch
// watchdog covers the interval where a parked worker's pin stalls
// reclamation), so the workload always terminates; afterwards the suite
// asserts completion, linearizability, structure invariants, and that
// epoch pending returns to zero.
func ChaosChurnStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, opsPerWriter int, window []K, val func(writer, i int) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	defer hangGuard(t, 2*time.Minute)()

	d := tgt.New()
	rec := linearize.NewRecorder(d)

	w := epoch.StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	defer w.Stop()
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
	// keeps the workload finite while still leaving parks long enough
	// (relative to the watchdog's stall threshold) to force evictions and
	// recoveries of pinned parked workers.
	relStop := make(chan struct{})
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-relStop:
				return
			case <-tick.C:
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
					p.Insert(k, val(w, i))
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

// ChaosChurnStress is the int64 wrapper: a 16-key window in a sparse
// region, values unique per (writer, op).
func ChaosChurnStress(t *testing.T, tgt Target, writers, opsPerWriter int) {
	t.Helper()
	window := make([]int64, 16)
	for i := range window {
		window[i] = int64(1<<21 + i*3)
	}
	ChaosChurnStressKV(t, tgt.generic(), writers, opsPerWriter, window,
		func(w, i int) int64 { return int64(w)<<32 + int64(i) + 1 })
}

// ChaosCrashStressKV runs the shared-window churn with panic injection
// armed: workers crash at random instrumentation points mid-operation and
// recover, relying on the operations' deferred epoch unpins to release
// their pins during unwinding. Afterwards the structure must be fully
// usable (a sequential model-checked pass over the window), its invariants
// must hold, and epoch pending must drain to zero.
func ChaosCrashStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], workers, opsPerWorker int, window []K, val func(worker, i int) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	defer hangGuard(t, 2*time.Minute)()

	d := tgt.New()

	w := epoch.StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	defer w.Stop()
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
					survive(func() { d.Insert(k, val(w, i)) })
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
		v := val(workers, i) // worker id past every real worker: fresh values
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

// ChaosCrashStress is the int64 wrapper for ChaosCrashStressKV.
func ChaosCrashStress(t *testing.T, tgt Target, workers, opsPerWorker int) {
	t.Helper()
	window := make([]int64, 16)
	for i := range window {
		window[i] = int64(1<<22 + i*3)
	}
	ChaosCrashStressKV(t, tgt.generic(), workers, opsPerWorker, window,
		func(w, i int) int64 { return int64(w)<<32 + int64(i) + 1 })
}

// ChaosBoundedStressKV exercises the bounded-operation surface under chaos
// contention: workers on disjoint keyspaces issue InsertBounded and
// DeleteBounded with tight retry budgets while chaos delays and preemption
// inflate contention from neighboring keyspaces. Because each worker owns
// its keys, its operations are sequential per key, so a per-worker model
// tracks the exact expected state: a budget failure must be effect-free and
// a success must land exactly. The target must implement dict.BoundedMap.
func ChaosBoundedStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], goroutines, opsPerG int, key func(g int, u uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	defer hangGuard(t, 2*time.Minute)()

	d := tgt.New()
	bm, ok := d.(dict.BoundedMap[K, V])
	if !ok {
		t.Fatalf("%s does not implement dict.BoundedMap", tgt.Name)
	}

	w := epoch.StartWatchdog(2*time.Millisecond, 10*time.Millisecond)
	defer w.Stop()
	if err := sched.EnableChaos(sched.ChaosConfig{
		Seed:       int64(seed),
		Default:    sched.ChaosPolicy{Delay: 50000, Preempt: 50000},
		DelaySpins: 256,
	}); err != nil {
		t.Fatal(err)
	}
	defer sched.DisableChaos()

	var budgetFails atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cw := sched.RegisterChaos(g)
			defer cw.Close()
			md := newModel[K, V]()
			state := seed + uint64(g)*0x9e3779b97f4a7c15 + 1
			budget := dict.Budget{Retries: 2}
			for i := 0; i < opsPerG; i++ {
				k := key(g, lcg(&state))
				if lcg(&state)%3 != 2 {
					v := val(lcg(&state))
					old, existed, err := bm.InsertBounded(k, v, budget)
					if err != nil {
						// Effect-free by contract: the model is untouched.
						if err != dict.ErrRetryBudget && err != dict.ErrDeadline {
							errs <- err
							return
						}
						budgetFails.Add(1)
						continue
					}
					wantOld, wantEx := md.insert(k, v)
					if old != wantOld || existed != wantEx {
						errs <- errMismatch("InsertBounded", k, old, existed, wantOld, wantEx)
						return
					}
				} else {
					old, existed, err := bm.DeleteBounded(k, budget)
					if err != nil {
						if err != dict.ErrRetryBudget && err != dict.ErrDeadline {
							errs <- err
							return
						}
						budgetFails.Add(1)
						continue
					}
					wantOld, wantEx := md.delete(k)
					if old != wantOld || existed != wantEx {
						errs <- errMismatch("DeleteBounded", k, old, existed, wantOld, wantEx)
						return
					}
				}
			}
			// Final sweep: the structure's view of this worker's keyspace
			// must match the model exactly — a "failed" operation that
			// actually published would show up here.
			for _, k := range md.sortedKeys() {
				wantV, _ := md.get(k)
				gotV, gotOK := d.Get(k)
				if !gotOK || gotV != wantV {
					errs <- errMismatch("final Get", k, gotV, gotOK, wantV, true)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	st := sched.ReadChaosStats()
	sched.DisableChaos()
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("chaos stats: %+v, budget failures: %d", st, budgetFails.Load())
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Errorf("invariant check after bounded stress: %v", err)
		}
	}
	drainPending(t, 10*time.Second)
}

// ChaosBoundedStress is the int64 wrapper: goroutine g owns the packed
// keyspace [g*keysPerG, (g+1)*keysPerG), so budget pressure comes from
// structural contention with the neighbors, never from data races on keys.
func ChaosBoundedStress(t *testing.T, tgt Target, goroutines, opsPerG int, keysPerG int64) {
	t.Helper()
	gt := tgt.generic()
	ChaosBoundedStressKV(t, gt, goroutines, opsPerG,
		func(g int, u uint64) int64 { return int64(g)*keysPerG + int64(u%uint64(keysPerG)) },
		func(u uint64) int64 { return int64(u%(1<<30)) + 1 })
}

func errMismatch(op string, key, got, gotOK, want, wantOK any) error {
	return fmt.Errorf("%s(%v) = (%v, %v), sequential model says (%v, %v)", op, key, got, gotOK, want, wantOK)
}
