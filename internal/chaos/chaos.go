// Package chaos is a probabilistic runtime fault-injection layer for the
// LLX/SCX stack. It reuses the instrumentation points that internal/sched
// compiles into the protocol layers (LLX reads, the SCX freeze/mark/update/
// commit sequence, vcell publishes, epoch retire/advance) but, unlike the
// deterministic controller, it works in the default build: arming chaos
// flips one atomic flag, and every sched.Point call becomes a chance to
// perturb the calling goroutine.
//
// Where `-tags sched` exhaustively enumerates tiny bounded windows, chaos
// samples the unbounded space: long runs with many goroutines, each point
// independently rolling (with a seeded, per-worker deterministic RNG)
// whether to inject a delay, a forced preemption (runtime.Gosched), a
// dropped optional helping step, an injected panic, or an "abandoned
// worker" — the goroutine parks indefinitely mid-protocol, possibly while
// epoch-pinned, simulating a stuck or leaked thread. Lock-freedom says the
// rest of the system must keep making progress past all of these (helping
// completes a parked SCX; the epoch watchdog degrades around a parked pin),
// and the dicttest chaos suites assert exactly that.
//
// Only goroutines that opt in via Register are ever perturbed: the test
// harness, runtime goroutines, and the watchdog itself pass through armed
// points untouched. Panic and abandonment are statically excluded at the
// points inside the snapshot machinery's fastWriters brackets and the
// Snapshot() capture window (see excluded), because a goroutine that dies
// or parks forever inside one of those brackets wedges every later
// Snapshot() — a failure mode the real runtime cannot produce (the bracket
// body performs no call that can panic, and the runtime never abandons a
// goroutine that is not blocked) and whose injection would therefore test
// nothing real.
package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// PointPolicy sets the injection rates at one instrumentation point. Rates
// are in parts per million of point crossings; at most one fault fires per
// crossing (a single roll is compared against the cumulative bands in the
// order panic, abandon, delay, preempt).
type PointPolicy struct {
	Delay   uint32 // ppm: busy-wait for Config.DelaySpins iterations
	Preempt uint32 // ppm: runtime.Gosched
	Abandon uint32 // ppm: park until ReleaseAbandoned (capped by MaxAbandoned)
	Panic   uint32 // ppm: panic with a chaos.Panic value
}

// Config seeds and shapes one chaos run.
type Config struct {
	// Seed makes the run deterministic: worker i's roll sequence is a pure
	// function of (Seed, i) and the points it crosses.
	Seed int64

	// Default applies at every point without an explicit Points entry.
	Default PointPolicy

	// Points overrides the default policy per instrumentation point.
	Points map[sched.PointID]PointPolicy

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

// Panic is the value thrown by injected panics; tests recover it and assert
// on the injection site.
type Panic struct {
	Point sched.PointID
}

func (p Panic) Error() string { return fmt.Sprintf("chaos: injected panic at %v", p.Point) }

// excluded marks the points where panic and abandonment must not fire: the
// interior of a fastWriters publish bracket (vcell publish + mark re-check,
// version stamp, the stamped SCX's update CAS) and Snapshot()'s capture
// window. A worker lost there holds a counter or a live-snapshot
// registration that nothing else can release, wedging every later capture —
// see the package comment. Delays and preemption remain allowed everywhere;
// they are exactly the perturbations the sched enumerations explore at
// these points.
var excluded = [sched.NumPoints]bool{
	sched.PointVCellPublish: true,
	sched.PointVCellRecheck: true,
	sched.PointVerStamp:     true,
	sched.PointSCXUpdate:    true,
	sched.PointSnapPublish:  true,
	sched.PointSnapDrain:    true,
}

// Stats are cumulative injection counts for one chaos run.
type Stats struct {
	Delays    int64
	Preempts  int64
	Abandons  int64
	Panics    int64
	DropHelps int64
}

// controller is the state of the active chaos run. One run at a time:
// Enable/Disable serialize on runMu.
type controller struct {
	cfg      Config
	policies [sched.NumPoints]PointPolicy

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
	runMu    sync.Mutex
	active   atomic.Pointer[controller]
	hookOnce sync.Once

	// workers maps goroutine ids of registered workers to their records.
	workers sync.Map // goid int64 -> *Worker

	// registered counts live registrations. The point hooks return before
	// the (expensive) goroutine-id resolution when it is zero, so phases
	// that run with no registered workers - benchmark prefill and drain,
	// the stress harnesses' verification passes - cross armed points at
	// full speed.
	registered atomic.Int64
)

// Enable installs the chaos hooks (once per process) and arms injection
// with cfg. It returns an error if a run is already active. Under
// `-tags sched` arming is a no-op — the deterministic controller owns the
// points there — so chaos tests skip themselves when sched.Enabled.
func Enable(cfg Config) error {
	runMu.Lock()
	defer runMu.Unlock()
	if active.Load() != nil {
		return fmt.Errorf("chaos: already enabled")
	}
	if cfg.DelaySpins == 0 {
		cfg.DelaySpins = 256
	}
	ctl := &controller{cfg: cfg, releaseCh: make(chan struct{})}
	for p := 0; p < sched.NumPoints; p++ {
		pol := cfg.Default
		if over, ok := cfg.Points[sched.PointID(p)]; ok {
			pol = over
		}
		if excluded[p] {
			pol.Panic = 0
			pol.Abandon = 0
		}
		ctl.policies[p] = pol
	}
	hookOnce.Do(func() { sched.SetChaosHooks(pointHook, dropHelpHook) })
	active.Store(ctl)
	sched.ArmChaos(true)
	return nil
}

// Disable disarms injection, wakes every abandoned worker, and waits for
// them to unpark before returning, so no chaos-parked goroutine outlives
// the run that parked it.
func Disable() {
	runMu.Lock()
	defer runMu.Unlock()
	ctl := active.Load()
	if ctl == nil {
		return
	}
	sched.ArmChaos(false)
	ctl.release()
	for ctl.abandoned.Load() != 0 {
		runtime.Gosched()
	}
	active.Store(nil)
}

// Armed reports whether a chaos run is active and armed.
func Armed() bool { return sched.ChaosArmed() }

// ReleaseAbandoned wakes every currently parked ("abandoned") worker. The
// stress suites call it before joining their workers and before checking
// linearizability, so parked operations complete and their histories close.
func ReleaseAbandoned() {
	if ctl := active.Load(); ctl != nil {
		ctl.release()
	}
}

// AbandonedCount returns the number of workers currently parked by
// abandonment injection.
func AbandonedCount() int64 {
	if ctl := active.Load(); ctl != nil {
		return ctl.abandoned.Load()
	}
	return 0
}

// ReadStats returns the active run's cumulative injection counts (zero when
// no run is active).
func ReadStats() Stats {
	ctl := active.Load()
	if ctl == nil {
		return Stats{}
	}
	return Stats{
		Delays:    ctl.delays.Load(),
		Preempts:  ctl.preempts.Load(),
		Abandons:  ctl.abandons.Load(),
		Panics:    ctl.panics.Load(),
		DropHelps: ctl.dropHelps.Load(),
	}
}

func (ctl *controller) release() {
	ctl.releaseMu.Lock()
	close(ctl.releaseCh)
	ctl.releaseCh = make(chan struct{})
	ctl.releaseMu.Unlock()
}

func (ctl *controller) currentRelease() chan struct{} {
	ctl.releaseMu.Lock()
	ch := ctl.releaseCh
	ctl.releaseMu.Unlock()
	return ch
}

// Worker is one registered goroutine's injection state. All fields after
// registration are touched only by the owning goroutine.
type Worker struct {
	goid int64
	rng  uint64
}

// Register opts the calling goroutine into chaos injection. id
// disambiguates the worker's RNG stream: rolls are a pure function of
// (Config.Seed, id), so a fixed seed replays the same faults regardless of
// how goroutine startup interleaves. The caller must Close the worker
// before the goroutine exits. Registering with no active run returns an
// inert worker.
func Register(id int) *Worker {
	ctl := active.Load()
	if ctl == nil {
		return &Worker{}
	}
	w := &Worker{goid: sched.GoID(), rng: mix64(uint64(ctl.cfg.Seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)}
	workers.Store(w.goid, w)
	registered.Add(1)
	return w
}

// Close unregisters the worker from injection.
func (w *Worker) Close() {
	if w.goid != 0 {
		workers.Delete(w.goid)
		w.goid = 0
		registered.Add(-1)
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

// pointHook is installed as sched's chaos hook: it runs at every armed
// instrumentation point, on every goroutine, so the non-worker fast paths
// (a zero registration count, a zero policy, a map miss) must come before
// the goroutine-id resolution, which costs a runtime.Stack call.
func pointHook(id sched.PointID) {
	ctl := active.Load()
	if ctl == nil || registered.Load() == 0 {
		return
	}
	pol := &ctl.policies[id]
	total := uint64(pol.Panic) + uint64(pol.Abandon) + uint64(pol.Delay) + uint64(pol.Preempt)
	if total == 0 {
		return
	}
	v, ok := workers.Load(sched.GoID())
	if !ok {
		return
	}
	w := v.(*Worker)
	r := w.next() % 1_000_000
	switch {
	case r < uint64(pol.Panic):
		ctl.panics.Add(1)
		panic(Panic{Point: id})
	case r < uint64(pol.Panic)+uint64(pol.Abandon):
		ctl.abandon(id)
	case r < uint64(pol.Panic)+uint64(pol.Abandon)+uint64(pol.Delay):
		ctl.delays.Add(1)
		spin(ctl.cfg.DelaySpins)
	case r < total:
		ctl.preempts.Add(1)
		runtime.Gosched()
	}
}

// abandon parks the calling worker until the next ReleaseAbandoned, unless
// the cap of simultaneously parked workers is already reached.
func (ctl *controller) abandon(sched.PointID) {
	// Take the release channel before being counted as parked: a release
	// issued by someone who saw the count closes this channel or a later
	// one, never an earlier one, so the park cannot miss its wakeup.
	ch := ctl.currentRelease()
	for {
		n := ctl.abandoned.Load()
		if n >= int64(ctl.cfg.MaxAbandoned) {
			return
		}
		if ctl.abandoned.CompareAndSwap(n, n+1) {
			break
		}
	}
	ctl.abandons.Add(1)
	<-ch
	ctl.abandoned.Add(-1)
}

// dropHelpHook rolls whether the calling worker skips an optional helping
// step.
func dropHelpHook() bool {
	ctl := active.Load()
	if ctl == nil || ctl.cfg.DropHelp == 0 || registered.Load() == 0 {
		return false
	}
	v, ok := workers.Load(sched.GoID())
	if !ok {
		return false
	}
	w := v.(*Worker)
	if w.next()%1_000_000 < uint64(ctl.cfg.DropHelp) {
		ctl.dropHelps.Add(1)
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
