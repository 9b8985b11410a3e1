package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/chromatic"
	"repro/internal/epoch"
	"repro/internal/workload"
)

// checkedStore is a store the run can also verify and read counters from
// after the windows. All five workloads run on chromatic trees.
type checkedStore interface {
	store
	Ascend(fn func(k, v int64) bool) int
	CheckInvariants() error
	DrainReclaim() int64
	Height() int
	CountViolations() int
	Stats() *chromatic.Stats
}

// config is one run's shape. main fills seed, windows and trace from the
// flags and takes the rest from the constants in spec.go; tests shrink it.
type config struct {
	seed    int64
	windows int
	window  time.Duration
	warmup  time.Duration
	trace   bool
	out     io.Writer // human-readable report

	keyCap    int64                           // tests: cap on a workload's key range, 0 for none
	setupReps int                             // tests: overrides spec.SetupReps when > 0
	probeOps  int64                           // length of the quiescent probe
	spanRing  int                             // spans a traced run keeps per worker
	layerDiv  int                             // tests: divides the layer run's iteration counts
	wrap      func(checkedStore) checkedStore // tests: breaks the structure on purpose
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters is what the run can read through public APIs without stopping the
// workers for long; the per-workload layer metrics are differences of two.
type counters struct {
	rebal, rebalAttempts, rebalFails int64
	ep                               epoch.Report
	mallocs, allocBytes              uint64
	gcCycles                         uint32
	gcPauseNs                        uint64
	cpuTotal, cpuSteal               uint64
}

func readCounters(m checkedStore) counters {
	st := m.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		rebal:         st.RebalanceTotal(),
		rebalAttempts: st.RebalanceAttempts.Load(),
		rebalFails:    st.RebalanceFails.Load(),
		ep:            epoch.Stats(),
		mallocs:       ms.Mallocs,
		allocBytes:    ms.TotalAlloc,
		gcCycles:      ms.NumGC,
		gcPauseNs:     ms.PauseTotalNs,
	}
	c.cpuTotal, c.cpuSteal = readProcStat()
	return c
}

// readProcStat returns the host's total and stolen CPU ticks from the first
// line of /proc/stat, or zeros where there is none.
func readProcStat() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// quiescentHeap is the heap in use once reclamation has caught up: two
// DrainReclaim passes, then two collections, so the sync.Pool victim caches
// are empty too and only what the structure and the epoch layer still
// reference counts.
func (r *run) quiescentHeap() uint64 {
	r.m.DrainReclaim()
	r.pending = r.m.DrainReclaim()
	runtime.GC()
	runtime.GC()
	return heapAlloc()
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run is one workload run in progress.
type run struct {
	sp       spec
	cfg      config
	keyRange int64
	start    time.Time
	cal      *calibrator

	// Set-up.
	m           checkedStore
	workers     []*worker
	probe       *worker // the quiescent probe's worker: every operation sampled
	prefillSum  int64
	prefillSize int
	heapBefore  uint64    // before construction, with the streams built
	heapBuilt   uint64    // after prefill, quiescent
	setupRaw    []float64 // seconds per repetition
	setupCal    []float64 // the same, calibrated

	// Untraced windows.
	before, after    counters
	tput             []float64 // ops/s per window
	calibNs          float64   // ns per calibration search: best decile of the slices
	untracedOps      int64
	ops              [numClasses]int64
	winLat, probeLat classLat

	// Traced windows.
	tracers                  []*tracer
	windowSpans              []windowSpan
	tracedTput               []float64
	tracedCalibNs            float64 // the traced windows' own calibration
	tracedOps, tracedElapsed int64

	// End of run.
	attempted, failed int64
	finalSize         int
	heapEnd           uint64 // after the run, quiescent
	pending           int64  // what two DrainReclaim passes left pending
	metrics           map[string]metric
	problems          []string
}

func (r *run) printf(format string, a ...any) { fmt.Fprintf(r.cfg.out, format, a...) }

func (r *run) set(name string, v float64, note string) {
	d, ok := declOf(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: d.Unit}
	r.printf("  %-38s %16.6g %-10s %s\n", name, v, d.Unit, note)
}

func declOf(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

// build builds the structure once, the way a caller would before its first
// operation: the workers' streams (with their zipf tables), then construct
// and Prefill with the workload's own mix, the paper's steady-state
// procedure. The collections between the two halves are not timed; they give
// every repetition the same heap and give heap_bytes_per_key its baseline
// after the streams exist and before the structure does. It takes two: a
// tree's sync.Pools keep a dropped tree reachable from the runtime's pool
// list through one collection.
func (r *run) build() error {
	f, ok := bench.Lookup(r.sp.Structure)
	if !ok {
		return fmt.Errorf("workload %s: no structure %q in bench.Registry", r.sp.Name, r.sp.Structure)
	}
	r.workers, r.probe = nil, nil
	t0 := time.Now()
	for i := 0; i < numWorkers; i++ {
		r.workers = append(r.workers, newWorker(i, nil, newStream(r.cfg.seed, i, r.sp.Mix, r.sp.Dist, r.keyRange), sampleEvery-1))
	}
	streamTime := time.Since(t0)
	// The probe's worker and a traced run's span rings are the benchmark's
	// own and are not timed, but exist before the heap baseline like the rest.
	r.probe = newWorker(numWorkers, nil, newStream(r.cfg.seed, numWorkers, probeMix, r.sp.Dist, r.keyRange), 0)
	if r.cfg.trace {
		r.tracers = nil
		for range r.workers {
			r.tracers = append(r.tracers, newTracer(r.start, r.cfg.spanRing))
		}
	}

	runtime.GC()
	runtime.GC()
	r.heapBefore = heapAlloc()

	t1 := time.Now()
	m, ok := f.New().(checkedStore)
	if !ok {
		return fmt.Errorf("workload %s: structure %q lacks the methods the oracle needs", r.sp.Name, r.sp.Structure)
	}
	workload.Prefill(m, r.sp.Mix, r.keyRange, prefillTolerance, r.cfg.seed)
	r.setupRaw = append(r.setupRaw, (streamTime + time.Since(t1)).Seconds())

	if r.cfg.wrap != nil {
		m = r.cfg.wrap(m)
	}
	r.m = m
	for _, w := range append(r.workers, r.probe) {
		w.m = m
	}
	return nil
}

// window runs every worker for one window, traced or not, and returns each
// worker's own count and elapsed time.
func (r *run) window(ws []*worker, d time.Duration, maxOps int64, traced bool) []workerWindow {
	res := make([]workerWindow, len(ws))
	together(len(ws), func(g int) {
		if traced {
			res[g] = ws[g].runTraced(d, maxOps)
		} else {
			res[g] = ws[g].run(d, maxOps)
		}
	})
	return res
}

// classLat follows a group of workers' latency histograms and keeps, for each
// class, the median of the samples each window added.
type classLat struct {
	ws   []*worker
	prev [numClasses]hist // the group's merged histograms at the last endWindow
	p50  [numClasses][]float64
}

func (cl *classLat) endWindow() {
	for c := range cl.prev {
		var cur hist
		for _, w := range cl.ws {
			cur.merge(&w.lat[c])
		}
		added := cur
		added.sub(&cl.prev[c])
		// A window's median needs ten samples beyond it, like any percentile.
		if _, ok := highestPercentile(added.n); ok {
			cl.p50[c] = append(cl.p50[c], added.quantile(0.5))
		}
		cl.prev[c] = cur
	}
}

func sumOps(ws []workerWindow) (n int64) {
	for _, w := range ws {
		n += w.ops
	}
	return n
}

// runWorkload runs one workload: set-up, warm-up, the untraced windows, then
// (traced runs only) the traced windows and a traced probe, then the
// end-of-run checks. An untraced run reports every end-to-end metric, a
// traced run every per-layer metric.
func runWorkload(sp spec, cfg config) (result, error) {
	r := &run{sp: sp, cfg: cfg, keyRange: sp.KeyRange, start: time.Now(), metrics: map[string]metric{}, cal: newCalibrator(cfg.seed)}
	if cfg.keyCap > 0 && r.keyRange > cfg.keyCap {
		r.keyRange = cfg.keyCap
	}
	r.printf("workload %s: %s, %s, %s keys over [0,%d), %d workers (closed loop), seed %d, nproc %d, GOMAXPROCS %d\n",
		sp.Name, sp.Structure, sp.Mix, sp.Dist, r.keyRange, numWorkers, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	if cfg.trace {
		// The layer run goes first, in a process that has not yet built a
		// tree, so its numbers do not depend on the workload.
		r.printf(" layers (median of %d repetitions, single goroutine unless _2t)\n", layerReps)
		r.problems = runLayers(cfg.seed, cfg.layerDiv, r.set)
		epoch.Drain()
		epoch.DiscardAll()
	}
	if err := r.setUp(); err != nil {
		return result{}, err
	}
	r.window(r.workers, cfg.warmup, math.MaxInt64, false)
	for _, w := range r.workers {
		w.resetCounts()
	}
	r.untracedWindows()
	if cfg.trace {
		r.tracedWindows()
	}
	r.check()
	if cfg.trace {
		if err := r.reportPerLayer(); err != nil {
			return result{}, err
		}
	} else {
		r.reportEndToEnd()
	}

	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if len(r.problems) > 0 {
		res.Failed = r.attempted // an end-of-run check failed: failed_frac is 1
	}
	for _, p := range r.problems {
		r.printf(" FAILED %s\n", p)
	}
	r.printf(" attempted %d, failed %d, failed_frac %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// setUp builds the structure SetupReps times (once in a traced run: setup_s
// is not a layer metric) and keeps the last. Set-up is single-threaded, so
// its calibration slices are too: one before the first repetition and one
// after each, and a repetition is scaled by the mean of its two neighbours.
func (r *run) setUp() error {
	reps := r.sp.SetupReps
	if r.cfg.setupReps > 0 {
		reps = r.cfg.setupReps
	}
	if r.cfg.trace {
		reps = 1
	}
	calib := []float64{r.cal.slice(1)}
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Drop the previous repetition. DiscardAll severs what the epoch
			// layer still holds of it, so the collector can take the tree.
			r.m, r.workers, r.probe = nil, nil, nil
			epoch.Drain()
			epoch.DiscardAll()
		}
		if err := r.build(); err != nil {
			return err
		}
		calib = append(calib, r.cal.slice(1))
		r.setupCal = append(r.setupCal, r.setupRaw[i]*calibRefNs/((calib[i]+calib[i+1])/2))
	}
	r.prefillSize = r.m.Ascend(func(k, _ int64) bool { r.prefillSum += k; return true })
	r.heapBuilt = r.quiescentHeap()
	r.printf(" set-up %d times, prefilled to %d keys\n", reps, r.prefillSize)
	return nil
}

// untracedWindows runs the windows every end-to-end metric comes from. A
// calibration slice follows each window. In an untraced run so does a slice
// of the quiescent probe, so that the probe sees the same stretch of host
// time as the windows do; a traced run reads its counters around the windows
// and probes afterwards.
func (r *run) untracedWindows() {
	cfg := r.cfg
	r.winLat = classLat{ws: r.workers}
	r.probeLat = classLat{ws: []*worker{r.probe}}
	r.before = readCounters(r.m)
	var calib []float64 // ns per calibration search
	for i := 0; i < cfg.windows; i++ {
		res := r.window(r.workers, cfg.window, math.MaxInt64, false)
		r.tput = append(r.tput, windowThroughput(res))
		r.untracedOps += sumOps(res)
		r.winLat.endWindow()
		calib = append(calib, r.cal.slice(numWorkers))
		if !cfg.trace {
			r.window(r.probeLat.ws, time.Hour, max(cfg.probeOps/int64(cfg.windows), 1), false)
			r.probeLat.endWindow()
		}
	}
	r.after = readCounters(r.m)
	r.calibNs = bestDecile(calib, lower)
	if cfg.trace {
		r.window(r.probeLat.ws, time.Hour, cfg.probeOps/4, false)
		r.probeLat.endWindow()
	}

	for _, w := range r.workers {
		for c := range r.ops {
			r.ops[c] += w.ops[c]
		}
	}
	r.printf(" %d untraced windows of %v: %d ops;", cfg.windows, cfg.window, r.untracedOps)
	for c, n := range r.ops {
		r.printf(" %s %.1f%%", classNames[c], 100*float64(n)/float64(r.untracedOps))
	}
	r.printf("\n  ops/s per window:")
	for _, v := range r.tput {
		r.printf(" %.0f", v)
	}
	r.printf("\n")
}

// tracedWindows runs as many windows again with every operation in a span, on
// the same structure, then a traced probe for the three calls of a snapscan
// on workloads whose windows have none.
func (r *run) tracedWindows() {
	for i, w := range r.workers {
		w.tr = r.tracers[i]
	}
	var calib []float64
	for i := 0; i < r.cfg.windows; i++ {
		for _, t := range r.tracers {
			t.window = uint16(i)
		}
		ws := windowSpan{start: int64(time.Since(r.start))}
		res := r.window(r.workers, r.cfg.window, math.MaxInt64, true)
		ws.end = int64(time.Since(r.start))
		r.windowSpans = append(r.windowSpans, ws)
		r.tracedTput = append(r.tracedTput, windowThroughput(res))
		calib = append(calib, r.cal.slice(numWorkers))
		r.tracedOps += sumOps(res)
		for _, ww := range res {
			r.tracedElapsed += ww.elapsed
		}
	}
	for _, w := range r.workers {
		w.tr = nil
	}
	r.tracedCalibNs = bestDecile(calib, lower)
	r.probe.tr = newTracer(r.start, 1)
	r.window(r.probeLat.ws, time.Hour, r.cfg.probeOps/4, true)
}

// check runs the end-of-run checks. Any failure makes the whole run
// incorrect.
func (r *run) check() {
	var keySum int64
	for _, w := range append(r.workers, r.probe) {
		r.attempted += w.attempted
		r.failed += w.failed
		keySum += w.keySum
	}
	var finalSum int64
	r.finalSize = r.m.Ascend(func(k, _ int64) bool { finalSum += k; return true })
	if finalSum != r.prefillSum+keySum {
		r.problem("key sum: structure holds %d, prefill %d + workers %d = %d", finalSum, r.prefillSum, keySum, r.prefillSum+keySum)
	}
	if err := r.m.CheckInvariants(); err != nil {
		r.problem("CheckInvariants: %v", err)
	}
	r.heapEnd = r.quiescentHeap()
	if drops := epoch.Stats().DegradedDrops; drops != 0 {
		r.problem("epoch: %d degraded drops", drops)
	}
	if r.cfg.trace {
		var spans int64
		outside := r.probe.tr.outside
		for _, t := range r.tracers {
			outside += t.outside
			for _, n := range t.count {
				spans += n
			}
		}
		if spans != r.tracedOps {
			r.problem("trace: %d spans for %d traced ops", spans, r.tracedOps)
		}
		if outside != 0 {
			r.problem("trace: %d snapscan spans do not contain their children", outside)
		}
	}
}

// reportEndToEnd sets every end-to-end metric. Times are calibrated: scaled
// to a host on which a calibration search takes calibRefNs.
func (r *run) reportEndToEnd() {
	speed := calibRefNs / r.calibNs // above 1 on a host faster than the reference
	r.printf(" end to end (best decile of %d windows; times calibrated: a search took %.4g ns here, %g ns on the reference host)\n", r.cfg.windows, r.calibNs, calibRefNs)
	best := bestDecile(r.tput, higher)
	r.set("throughput_ops_s", best/speed, fmt.Sprintf("raw %.6g, median window %.6g, window spread %.3f", best, median(r.tput), spreadFrac(r.tput)))
	for c := class(0); c < numClasses; c++ {
		if _, ok := declOf(classNames[c] + "_p50_ns"); !ok {
			continue
		}
		cl, src := r.latencySource(c)
		r.printf("  %s p50 per window (%s):", classNames[c], src)
		for _, v := range cl.p50[c] {
			r.printf(" %.0f", v)
		}
		r.printf("\n")
		best := bestDecile(cl.p50[c], lower)
		r.set(classNames[c]+"_p50_ns", best*speed, fmt.Sprintf("raw %.6g, over all windows %.6g, n=%d %s", best, cl.prev[c].quantile(0.5), cl.prev[c].n, src))
	}
	// Memory per stored key is read when the structure is built, where it
	// repeats within 1 %; after the run it also holds the retire lists' grown
	// capacity, 15-19 % apart between runs on 10^4 keys, and is a layer metric.
	r.set("heap_bytes_per_key", (float64(r.heapBuilt)-float64(r.heapBefore))/float64(r.prefillSize), fmt.Sprintf("%d keys; after the run %.6g over %d keys", r.prefillSize, (float64(r.heapEnd)-float64(r.heapBefore))/float64(r.finalSize), r.finalSize))
	r.set("setup_s", median(r.setupCal), fmt.Sprintf("median of %d, raw %.6g", len(r.setupCal), median(r.setupRaw)))
}

// latencySource is where a class's latency is read from: the windows, or the
// probe when the class has under 10 % of the windows' operations.
func (r *run) latencySource(c class) (*classLat, string) {
	if fromWindows(r.ops[c], r.untracedOps) {
		return &r.winLat, "windows"
	}
	return &r.probeLat, "probe"
}

// reportPerLayer sets every per-layer metric the layer run has not, and
// writes the span file.
func (r *run) reportPerLayer() error {
	before, after := r.before, r.after
	r.printf(" per workload, over the untraced windows\n")
	upd := math.Max(float64(r.ops[clsUpd]), 1)
	ops := float64(r.untracedOps)
	r.set("chromatic.rebalance_per_upd", float64(after.rebal-before.rebal)/upd, "")
	r.set("chromatic.rebalance_fail_frac", ratio(float64(after.rebalFails-before.rebalFails), float64(after.rebalAttempts-before.rebalAttempts)), "")
	r.set("chromatic.height_end", float64(r.m.Height()), "")
	r.set("chromatic.violations_end", float64(r.m.CountViolations()), "")
	r.set("epoch.advance_fails_per_mop", float64(after.ep.AdvanceFails-before.ep.AdvanceFails)/(ops/1e6), "")
	r.set("epoch.refusals_per_mop", float64(after.ep.Refusals-before.ep.Refusals)/(ops/1e6), "")
	r.set("epoch.pending_end", float64(r.pending), "after two DrainReclaim")
	r.set("epoch.degraded_drops", float64(epoch.Stats().DegradedDrops), "must be 0")
	r.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/ops, "")
	r.set("runtime.bytes_per_op", float64(after.allocBytes-before.allocBytes)/ops, "")
	r.set("runtime.heap_end_bytes_per_key", (float64(r.heapEnd)-float64(r.heapBefore))/float64(r.finalSize), fmt.Sprintf("%d keys; built %.6g", r.finalSize, (float64(r.heapBuilt)-float64(r.heapBefore))/float64(r.prefillSize)))
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "")
	r.set("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6, "")
	r.set("host.steal_frac", ratio(float64(after.cpuSteal-before.cpuSteal), float64(after.cpuTotal-before.cpuTotal)), "")
	r.set("host.window_spread_frac", spreadFrac(r.tput), fmt.Sprintf("%d windows", len(r.tput)))
	r.set("host.search_ns", r.calibNs, fmt.Sprintf("what untraced runs calibrate by; reference %g", calibRefNs))

	r.printf(" tails (over all untraced windows at once; not bounded: they spread 4-45 %% between runs on this host)\n")
	for c := class(0); c < numClasses; c++ {
		if _, ok := declOf(classNames[c] + "_p99_ns"); !ok {
			continue
		}
		cl, src := r.latencySource(c)
		h := &cl.prev[c]
		r.set(classNames[c]+"_p99_ns", h.quantile(0.99), fmt.Sprintf("n=%d %s", h.n, src))
		// p99.9 is printed, where the samples carry it, but is not a metric:
		// it moved 20-60 % between runs of the same code.
		if top, ok := highestPercentile(h.n); ok && top > 0.99 {
			r.printf("  %-38s %16.6g %-10s n=%d %s (not a metric)\n", fmt.Sprintf("%s_p%g_ns", classNames[c], top*100), h.quantile(top), "ns", h.n, src)
		}
	}

	r.printf(" traced windows: %d spans\n", r.tracedOps)
	var count, busy [numClasses]int64
	var child [3]hist
	for _, t := range r.tracers {
		for c := range count {
			count[c] += t.count[c]
			busy[c] += t.busy[c]
		}
		for k := range child {
			child[k].merge(&t.child[k])
		}
	}
	childSrc := "windows"
	if child[0].n == 0 {
		child, childSrc = r.probe.tr.child, "probe"
	}
	loop := 1.0
	for c := range busy {
		f := ratio(float64(busy[c]), float64(r.tracedElapsed))
		loop -= f
		r.set("dict."+classNames[c]+"_busy_frac", f, fmt.Sprintf("%d spans", count[c]))
	}
	r.set("bench.loop_busy_frac", loop, "op draw, oracle, span bookkeeping")
	// The two halves of a traced run are seconds apart, so each throughput is
	// calibrated by its own slices before they are compared.
	traced, untraced := bestDecile(r.tracedTput, higher)*r.tracedCalibNs, bestDecile(r.tput, higher)*r.calibNs
	r.set("bench.trace_overhead_frac", 1-ratio(traced, untraced), fmt.Sprintf("traced %.6g / untraced %.6g ops per search", traced/1e9, untraced/1e9))
	for k, name := range []string{"lbst.snap_capture_ns", "lbst.snap_walk_ns", "epoch.snap_release_ns"} {
		r.set(name, child[k].quantile(0.5), fmt.Sprintf("n=%d %s", child[k].n, childSrc))
	}

	// The span file is written last, after every window and check.
	path, err := writeSpans(r.sp.Name, int64(time.Since(r.start)), r.windowSpans, r.tracers)
	if err != nil {
		return err
	}
	r.printf(" spans written to %s\n", path)
	return nil
}

func (r *run) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
