package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The chaos driver. Where Explore exhaustively enumerates tiny bounded
// windows, a chaos run samples the unbounded space: long runs with many
// goroutines, each point independently rolling (with a seeded, per-worker
// deterministic RNG) whether to inject a delay, a forced preemption
// (runtime.Gosched), a dropped optional helping step, an injected panic, or
// an "abandoned worker": the goroutine parks indefinitely mid-protocol,
// possibly while epoch-pinned, simulating a stuck or leaked thread.
// Lock-freedom says the rest of the system must keep making progress past
// all of these (helping completes a parked SCX; the retires behind a parked
// epoch pin evict it and degrade around it), and the dicttest chaos suites
// assert exactly that.
// Only goroutines that opt in via RegisterChaos are perturbed.

// ChaosPolicy sets the injection rates at one instrumentation point. Rates
// are in parts per million of point crossings; at most one fault fires per
// crossing (a single roll is compared against the cumulative bands in the
// order panic, abandon, delay, preempt). Panic and Abandon are taken as zero
// at the points inside a publish bracket (see points).
type ChaosPolicy struct {
	Delay   uint32 // ppm: busy-wait for ChaosConfig.DelaySpins iterations
	Preempt uint32 // ppm: runtime.Gosched
	Abandon uint32 // ppm: park until ReleaseAbandoned (capped by MaxAbandoned)
	Panic   uint32 // ppm: panic with a ChaosPanic value
}

// ChaosConfig seeds and shapes one chaos run.
type ChaosConfig struct {
	// Seed makes the run deterministic: worker i's roll sequence is a pure
	// function of (Seed, i) and the points it crosses.
	Seed int64

	// Default applies at every point without an explicit Points entry.
	Default ChaosPolicy

	// Points overrides the default policy per instrumentation point.
	Points map[PointID]ChaosPolicy

	// DropHelp is the ppm rate at which an optional helping step (LLX's
	// help-on-failure) is skipped.
	DropHelp uint32

	// MaxAbandoned caps the number of simultaneously parked workers so a
	// high Abandon rate cannot park the whole workload (progress assertions
	// need survivors). 0 disables abandonment.
	MaxAbandoned int

	// DelaySpins is the length of one injected delay, in spin iterations.
	// 0 means the default (256).
	DelaySpins int
}

// ChaosPanic is the value thrown by injected panics; tests recover it and
// assert on the injection site.
type ChaosPanic struct {
	Point PointID
}

func (p ChaosPanic) Error() string { return fmt.Sprintf("chaos: injected panic at %v", p.Point) }

// ChaosStats are cumulative injection counts for one chaos run.
type ChaosStats struct {
	Delays    int64
	Preempts  int64
	Abandons  int64
	Panics    int64
	DropHelps int64
}

// chaosRun is the state of the active chaos run. One run at a time:
// EnableChaos/DisableChaos serialize on chaosMu.
type chaosRun struct {
	cfg      ChaosConfig
	policies [numPoints]ChaosPolicy

	// releaseCh is closed by ReleaseAbandoned to wake every parked worker;
	// a fresh channel replaces it so later abandons park again.
	releaseMu sync.Mutex
	releaseCh chan struct{}

	abandoned atomic.Int64 // currently parked workers

	delays    atomic.Int64
	preempts  atomic.Int64
	abandons  atomic.Int64
	panics    atomic.Int64
	dropHelps atomic.Int64
}

var (
	chaosMu   sync.Mutex
	activeRun atomic.Pointer[chaosRun]
)

// EnableChaos starts a chaos run with cfg. It returns an error if one is
// already active or a Controller is running (one driver at a time).
func EnableChaos(cfg ChaosConfig) error {
	chaosMu.Lock()
	defer chaosMu.Unlock()
	if activeRun.Load() != nil || controlled.Load() {
		return fmt.Errorf("chaos: already enabled, or a schedule controller is running")
	}
	if cfg.DelaySpins == 0 {
		cfg.DelaySpins = 256
	}
	run := &chaosRun{cfg: cfg, releaseCh: make(chan struct{})}
	for p := range run.policies {
		pol, ok := cfg.Points[PointID(p)]
		if !ok {
			pol = cfg.Default
		}
		if points[p].bracket {
			pol.Panic, pol.Abandon = 0, 0
		}
		run.policies[p] = pol
	}
	activeRun.Store(run)
	return nil
}

// DisableChaos ends the active run: its workers draw no further faults, and
// every abandoned one is woken and has unparked before DisableChaos returns,
// so no chaos-parked goroutine outlives the run that parked it.
func DisableChaos() {
	chaosMu.Lock()
	defer chaosMu.Unlock()
	run := activeRun.Swap(nil)
	if run == nil {
		return
	}
	// Release until the count is zero: a worker that rolled its abandonment
	// before the swap may park after a release.
	for run.abandoned.Load() != 0 {
		run.release()
		runtime.Gosched()
	}
}

// ReleaseAbandoned wakes every currently parked ("abandoned") worker. The
// stress suites call it before joining their workers and before checking
// linearizability, so parked operations complete and their histories close.
func ReleaseAbandoned() {
	if run := activeRun.Load(); run != nil {
		run.release()
	}
}

// ReadChaosStats returns the active run's cumulative injection counts (zero
// when no run is active).
func ReadChaosStats() ChaosStats {
	run := activeRun.Load()
	if run == nil {
		return ChaosStats{}
	}
	return ChaosStats{
		Delays:    run.delays.Load(),
		Preempts:  run.preempts.Load(),
		Abandons:  run.abandons.Load(),
		Panics:    run.panics.Load(),
		DropHelps: run.dropHelps.Load(),
	}
}

func (run *chaosRun) release() {
	run.releaseMu.Lock()
	close(run.releaseCh)
	run.releaseCh = make(chan struct{})
	run.releaseMu.Unlock()
}

func (run *chaosRun) currentRelease() chan struct{} {
	run.releaseMu.Lock()
	ch := run.releaseCh
	run.releaseMu.Unlock()
	return ch
}

// RegisterChaos opts the calling goroutine into the active run's injection.
// id disambiguates the worker's RNG stream: rolls are a pure function of
// (ChaosConfig.Seed, id), so a fixed seed replays the same faults regardless
// of how goroutine startup interleaves. A goroutine registers once, and must
// Close the worker before it exits. With no active run, or while a
// Controller runs (a worker whose points are scheduling decisions is never
// also chaos-delayed), the worker it returns is inert.
func RegisterChaos(id int) *Worker {
	run := activeRun.Load()
	if run == nil || controlled.Load() {
		return &Worker{}
	}
	w := &Worker{run: run, rng: mix64(uint64(run.cfg.Seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)}
	register(w)
	return w
}

// Close unregisters a worker RegisterChaos returned.
func (w *Worker) Close() {
	if w.run != nil {
		w.run = nil
		unregister()
	}
}

// next advances the worker's splitmix64 stream.
func (w *Worker) next() uint64 {
	w.rng += 0x9e3779b97f4a7c15
	return mix64(w.rng)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// liveRun returns the chaos run w draws faults from: the one it registered
// with, while that is still the active one. It is nil for a controller's
// worker.
func (w *Worker) liveRun() *chaosRun {
	if run := w.run; run != nil && run == activeRun.Load() {
		return run
	}
	return nil
}

// roll is Point for a chaos worker: one draw against the policy's bands.
func (w *Worker) roll(id PointID) {
	run := w.liveRun()
	if run == nil {
		return
	}
	pol := &run.policies[id]
	total := uint64(pol.Panic) + uint64(pol.Abandon) + uint64(pol.Delay) + uint64(pol.Preempt)
	if total == 0 {
		return
	}
	r := w.next() % 1_000_000
	switch {
	case r < uint64(pol.Panic):
		run.panics.Add(1)
		panic(ChaosPanic{Point: id})
	case r < uint64(pol.Panic)+uint64(pol.Abandon):
		run.abandon()
	case r < uint64(pol.Panic)+uint64(pol.Abandon)+uint64(pol.Delay):
		run.delays.Add(1)
		spin(run.cfg.DelaySpins)
	case r < total:
		run.preempts.Add(1)
		runtime.Gosched()
	}
}

// abandon parks the calling worker until the next ReleaseAbandoned, unless
// the cap of simultaneously parked workers is already reached.
func (run *chaosRun) abandon() {
	// Take the release channel before being counted as parked: a release
	// issued by someone who saw the count closes this channel or a later
	// one, never an earlier one, so the park cannot miss its wakeup.
	ch := run.currentRelease()
	for {
		n := run.abandoned.Load()
		if n >= int64(run.cfg.MaxAbandoned) {
			return
		}
		if run.abandoned.CompareAndSwap(n, n+1) {
			break
		}
	}
	run.abandons.Add(1)
	// A run that ended before the count went up no longer releases.
	if activeRun.Load() == run {
		<-ch
	}
	run.abandoned.Add(-1)
}

// dropHelp is ChaosDropHelp with somebody registered: a chaos worker rolls
// whether it skips the optional helping step.
func dropHelp() bool {
	w := self()
	if w == nil {
		return false
	}
	run := w.liveRun()
	if run == nil || run.cfg.DropHelp == 0 {
		return false
	}
	if w.next()%1_000_000 < uint64(run.cfg.DropHelp) {
		run.dropHelps.Add(1)
		return true
	}
	return false
}

// spinSink defeats dead-code elimination of the delay loop without sharing
// a cache line with anything the protocols touch.
var spinSink struct {
	_ [64]byte
	v atomic.Uint64
	_ [64]byte
}

func spin(n int) {
	var x uint64
	for i := 0; i < n; i++ {
		x += uint64(i) ^ x<<7
	}
	spinSink.v.Store(x)
}
