// Package bench is the throughput harness that regenerates the paper's
// evaluation (Section 6): timed trials in which a fixed number of worker
// goroutines apply a given operation mix over a given key range to one
// dictionary implementation, reporting operations per second. It also
// provides the table formatting used by cmd/chromatic-bench to print
// Figure 8, Figure 9, the headline ratios, the height experiment and the
// Chromatic6 threshold ablation.
package bench

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config describes one benchmark cell: a data structure, an operation mix, a
// key distribution, a key range, a worker count and a trial duration.
type Config struct {
	Factory  dict.IntFactory
	Mix      workload.Mix
	KeyRange int64
	Threads  int
	Duration time.Duration
	// Dist is the key distribution (uniform by default; DistZipf for the
	// skewed grid cells).
	Dist workload.Dist
	// ScanSpan is the key-window width of the mix's scan operations;
	// 0 means workload.DefaultScanSpan.
	ScanSpan int64
	// ScanMode routes the mix's scan operations: against the live structure
	// (default) or each through a freshly captured snapshot view.
	ScanMode workload.ScanMode
	// Trials is the number of timed trials to run (each on a fresh,
	// re-prefilled structure); the mean is reported. Defaults to 1.
	Trials int
	// Seed makes the workload deterministic for a given configuration.
	Seed int64
	// SkipPrefill starts measurements from an empty structure.
	SkipPrefill bool
	// HangTimeout bounds how long a trial may take to join its workers
	// after the stop broadcast. Zero picks a generous default (several
	// trial durations plus slack). A trial that exceeds it is wedged — a
	// worker stuck in a retry loop or parked by fault injection — and the
	// harness crashes the process with a full goroutine dump instead of
	// hanging a batch run silently.
	HangTimeout time.Duration
}

// Result is the outcome of the trials for one configuration.
type Result struct {
	Config     Config
	Ops        int64         // total operations across all trials
	Elapsed    time.Duration // total per-worker measured time (mean window per trial, summed over trials)
	Throughput float64       // operations per second (mean across trials)
	PrefillLen int           // dictionary size after prefilling
	// ScanP50 and ScanP99 are per-scan-operation latency quantiles across
	// all trials, measured only when the mix carries a scan share (zero
	// otherwise). Throughput alone hides what the scan modes trade: a
	// snapshot scan pays a fixed capture up front for a validation-free
	// walk, which shows up as a tighter tail (p99) long before it moves the
	// mean.
	ScanP50 time.Duration
	ScanP99 time.Duration
}

// Mops returns the throughput in millions of operations per second, the unit
// used on the y-axes of Figure 8.
func (r Result) Mops() float64 { return r.Throughput / 1e6 }

// Run executes the configured trials and returns the aggregated result.
func Run(cfg Config) Result {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	var total Result
	total.Config = cfg
	var sumThroughput float64
	var scans latencyHist
	for trial := 0; trial < cfg.Trials; trial++ {
		ops, elapsed, throughput, prefilled, h := runTrial(cfg, int64(trial))
		total.Ops += ops
		total.Elapsed += elapsed
		total.PrefillLen = prefilled
		sumThroughput += throughput
		scans.merge(h)
	}
	total.Throughput = sumThroughput / float64(cfg.Trials)
	total.ScanP50 = scans.quantile(0.50)
	total.ScanP99 = scans.quantile(0.99)
	return total
}

// latencyHist is a log-bucketed latency histogram: bucket i counts
// observations whose nanosecond duration has bit length i, i.e. durations in
// [2^(i-1), 2^i). Recording is one increment with no allocation and no
// locking (each worker owns a histogram and they are merged after the
// trial), which is what lets the harness time every scan operation without
// perturbing the measurement it is taking.
type latencyHist [65]uint64

// observe records one duration.
func (h *latencyHist) observe(d time.Duration) {
	h[bits.Len64(uint64(d))]++
}

// merge adds o's counts into h.
func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o {
		h[i] += c
	}
}

// quantile returns the latency at quantile q (0 < q < 1) as the geometric
// midpoint of the bucket holding that rank, or 0 when the histogram is
// empty. Log buckets bound the relative error at sqrt(2); plenty for the
// "which mode has the shorter tail" question the harness asks.
func (h *latencyHist) quantile(q float64) time.Duration {
	var total uint64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i, c := range h {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << (i - 1)
			return time.Duration(lo + lo/2)
		}
	}
	return 0
}

// workerResult is one worker's contribution to a trial: how many operations
// it completed, over which wall-clock window it completed them, and the
// latencies of its scan operations (populated only when the mix has a scan
// share).
type workerResult struct {
	ops     int64
	elapsed time.Duration
	scans   latencyHist
}

// runTrial runs one timed trial and returns the operation count, the mean
// per-worker measured window, the trial throughput and the prefilled size.
//
// Each worker times its own window, from the start broadcast until it has
// drained its final batch after observing stop. Measuring a single window
// around wg.Wait() would count every worker's operations against the
// slowest worker's window: the tail batches finish after stop closes, so
// the shared window is longer than cfg.Duration and the reported throughput
// is skewed low (the more workers, the worse). With per-worker windows the
// trial throughput is the sum of each worker's own rate, which is exact no
// matter how the tails straggle.
func runTrial(cfg Config, trial int64) (int64, time.Duration, float64, int, *latencyHist) {
	d := cfg.Factory.New()
	prefilled := 0
	if !cfg.SkipPrefill {
		prefilled = workload.Prefill(d, cfg.Mix, cfg.KeyRange, 0.05, cfg.Seed+trial*7919)
	}

	results := make([]workerResult, cfg.Threads)
	stop := make(chan struct{})
	var ready, wg sync.WaitGroup
	ready.Add(cfg.Threads)
	wg.Add(cfg.Threads)
	start := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		go func(worker int) {
			defer wg.Done()
			// Register with the chaos layer so a chaos-enabled run (the
			// chromatic-bench -chaos flag, robustness experiments) injects
			// into bench workers too. A no-op when chaos is disabled, which
			// is the default for every measurement run.
			cw := sched.RegisterChaos(worker)
			defer cw.Close()
			gen := workload.NewGeneratorDist(cfg.Mix, cfg.KeyRange, cfg.Dist,
				cfg.Seed^(trial*1_000_003)^int64(worker)*2_654_435_761)
			gen.SetScanSpan(cfg.ScanSpan)
			span := gen.ScanSpan()
			a := workload.NewApplier(d, cfg.ScanMode)
			timeScans := cfg.Mix.ScanPct > 0
			// scans stays on the worker's own stack during the hot loop and is
			// copied out once at stop, so recording a latency never touches the
			// shared results slice.
			var scans latencyHist
			ready.Done()
			<-start
			begin := time.Now()
			local := int64(0)
			for {
				select {
				case <-stop:
					results[worker] = workerResult{ops: local, elapsed: time.Since(begin), scans: scans}
					return
				default:
				}
				// Run a small batch between stop checks to keep the
				// measurement overhead negligible.
				for i := 0; i < 64; i++ {
					op, key := gen.Next()
					if timeScans && op == workload.OpScan {
						t0 := time.Now()
						a.Apply(op, key, span)
						scans.observe(time.Since(t0))
						continue
					}
					a.Apply(op, key, span)
				}
				local += 64
			}
		}(w)
	}
	ready.Wait()
	close(start)
	time.Sleep(cfg.Duration)
	close(stop)
	// Join the workers under a deadline. This wait is the trial's hang
	// point: a worker wedged in a retry loop (or parked by fault injection
	// that never released it) would otherwise hang the whole batch run with
	// no diagnostics. Crashing with a full goroutine dump names the wedge
	// site instead.
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	guard := cfg.HangTimeout
	if guard <= 0 {
		guard = 4*cfg.Duration + 30*time.Second
	}
	select {
	case <-joined:
	case <-time.After(guard):
		buf := make([]byte, 1<<22)
		n := runtime.Stack(buf, true)
		panic(fmt.Sprintf("bench: trial did not join its workers within %v; goroutine dump:\n%s", guard, buf[:n]))
	}
	// Quiesce the reclamation layer before the structure is dropped: a trial
	// ends with retired-but-unfreed nodes sitting in the global epoch retire
	// lists, and those lists are GC roots — without draining them here every
	// later trial in the same process pays GC mark costs for dead trees,
	// which measurably taxes even the structures that never touch the epoch
	// layer. Two passes, as in TestReclaimNoLeak: the second reaps what the
	// first pass's frees retired.
	if dr, ok := d.(interface{ DrainReclaim() int64 }); ok {
		dr.DrainReclaim()
		dr.DrainReclaim()
		// What the drains leave behind (the last grace periods' retirees)
		// would pin the dead structure as a GC root, and so would the SCX
		// descriptors, which keep the arguments of each slot's last SCX.
		// Everything
		// retired through the layer in this process belongs to this trial's
		// structure, so dropping the leftovers to the garbage collector
		// (and scrubbing the descriptors, which DiscardAll also does) is
		// sound and severs the retention.
		epoch.DiscardAll()
	}
	runtime.KeepAlive(d)
	var ops int64
	var sumElapsed time.Duration
	var throughput float64
	var scans latencyHist
	for i := range results {
		r := &results[i]
		ops += r.ops
		sumElapsed += r.elapsed
		throughput += float64(r.ops) / r.elapsed.Seconds()
		scans.merge(&r.scans)
	}
	return ops, sumElapsed / time.Duration(cfg.Threads), throughput, prefilled, &scans
}

// Cell identifies one cell of the Figure 8 grid. Dist and ScanMode extend
// the paper's (mix, key range) plane with the key-distribution and scan-mode
// dimensions; the zero values (uniform, live) reproduce the paper's cells.
type Cell struct {
	Mix      workload.Mix
	KeyRange int64
	Dist     workload.Dist
	ScanMode workload.ScanMode
}

// Table accumulates results for one (mix, key range) cell of Figure 8:
// throughput for every (structure, thread count) pair.
type Table struct {
	Cell       Cell
	Threads    []int
	Structures []string
	// Mops[structure][threads] in millions of operations per second.
	Mops map[string]map[int]float64
}

// NewTable creates an empty table for a cell.
func NewTable(cell Cell, threads []int, structures []string) *Table {
	m := make(map[string]map[int]float64, len(structures))
	for _, s := range structures {
		m[s] = make(map[int]float64, len(threads))
	}
	return &Table{Cell: cell, Threads: threads, Structures: structures, Mops: m}
}

// Add records one measurement.
func (t *Table) Add(structure string, threads int, mops float64) {
	if _, ok := t.Mops[structure]; !ok {
		t.Mops[structure] = make(map[int]float64)
		t.Structures = append(t.Structures, structure)
	}
	t.Mops[structure][threads] = mops
}

// String renders the table in the layout of one Figure 8 panel: one row per
// thread count, one column per data structure, cells in Mops/s.
func (t *Table) String() string {
	var b strings.Builder
	// The scan mode is named only when it is not the default, so the live
	// grid's headers stay byte-identical to what they were before the
	// dimension existed.
	scanMode := ""
	if t.Cell.ScanMode != workload.ScanLive {
		scanMode = fmt.Sprintf(", %s scans", t.Cell.ScanMode)
	}
	fmt.Fprintf(&b, "workload %s, %s keys%s, key range [0,%d)  (millions of operations per second)\n",
		t.Cell.Mix, t.Cell.Dist, scanMode, t.Cell.KeyRange)
	fmt.Fprintf(&b, "%8s", "threads")
	for _, s := range t.Structures {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteByte('\n')
	for _, th := range t.Threads {
		fmt.Fprintf(&b, "%8d", th)
		for _, s := range t.Structures {
			if v, ok := t.Mops[s][th]; ok {
				fmt.Fprintf(&b, " %12.3f", v)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Winner returns the structure with the highest throughput at the given
// thread count.
func (t *Table) Winner(threads int) (string, float64) {
	best := ""
	bestV := -1.0
	names := append([]string(nil), t.Structures...)
	sort.Strings(names)
	for _, s := range names {
		if v, ok := t.Mops[s][threads]; ok && v > bestV {
			best, bestV = s, v
		}
	}
	return best, bestV
}

// Speedup returns how many times faster a is than b at the given thread
// count (0 if either is missing).
func (t *Table) Speedup(a, b string, threads int) float64 {
	va, okA := t.Mops[a][threads]
	vb, okB := t.Mops[b][threads]
	if !okA || !okB || vb == 0 {
		return 0
	}
	return va / vb
}

// DefaultThreadCounts returns the thread counts to sweep: 1, 2, 4, ... up to
// twice the number of CPUs (the paper sweeps 1..128 hardware threads on its
// SPARC machine; on an arbitrary host we scale to the available
// parallelism and include one oversubscribed point).
func DefaultThreadCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for c := 2; c < max; c *= 2 {
		counts = append(counts, c)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	counts = append(counts, 2*max)
	return counts
}

// PaperThreadCounts returns the thread counts used in Figure 8 of the paper.
func PaperThreadCounts() []int { return []int{1, 32, 64, 96, 128} }

// PaperKeyRanges returns the key ranges used in Figure 8 of the paper.
func PaperKeyRanges() []int64 { return []int64{100, 10_000, 1_000_000} }

// PaperMixes returns the operation mixes used in Figure 8 of the paper.
func PaperMixes() []workload.Mix {
	return []workload.Mix{workload.Mix50i50d, workload.Mix20i10d, workload.Mix0i0d}
}

// Figure8Mixes returns the operation mixes of the extended Figure-8 grid:
// the paper's three mixes plus the scan-heavy mix, which exercises
// RangeScan under concurrent updates.
func Figure8Mixes() []workload.Mix {
	return append(PaperMixes(), workload.Mix5i5d50s)
}

// Figure8Dists returns the key distributions of the extended Figure-8 grid:
// the paper's uniform draws plus the zipfian (hot-key) distribution, which
// turns most of an update-heavy mix into overwrites of present keys and so
// exposes the cost of Insert-on-present.
func Figure8Dists() []workload.Dist {
	return []workload.Dist{workload.DistUniform, workload.DistZipf}
}
