// Package bench is the throughput harness that regenerates the paper's
// evaluation (Section 6): timed trials in which a fixed number of worker
// goroutines apply a given operation mix over a given key range to one
// dictionary implementation, reporting operations per second. It also
// provides the table formatting used by cmd/chromatic-bench to print
// Figure 8 and the height experiment.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/epoch"
	"repro/internal/workload"
)

// Config describes one benchmark cell: a data structure, an operation mix, a
// key range, a worker count and a trial duration.
type Config struct {
	Factory  dict.Factory[int64, int64]
	Mix      workload.Mix
	KeyRange int64
	Threads  int
	Duration time.Duration
	// Trials is the number of timed trials to run (each on a fresh,
	// re-prefilled structure); the mean is reported. Defaults to 1.
	Trials int
	// Seed makes the workload deterministic for a given configuration.
	Seed int64
}

// Result is the outcome of the trials for one configuration.
type Result struct {
	Config     Config
	Ops        int64         // total operations across all trials
	Elapsed    time.Duration // total per-worker measured time (mean window per trial, summed over trials)
	Throughput float64       // operations per second (mean across trials)
	PrefillLen int           // dictionary size after prefilling
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
	for trial := 0; trial < cfg.Trials; trial++ {
		ops, elapsed, throughput, prefilled := runTrial(cfg, int64(trial))
		total.Ops += ops
		total.Elapsed += elapsed
		total.PrefillLen = prefilled
		sumThroughput += throughput
	}
	total.Throughput = sumThroughput / float64(cfg.Trials)
	return total
}

// workerResult is one worker's contribution to a trial: how many operations
// it completed, and over which wall-clock window it completed them.
type workerResult struct {
	ops     int64
	elapsed time.Duration
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
func runTrial(cfg Config, trial int64) (int64, time.Duration, float64, int) {
	d := cfg.Factory.New()
	prefilled := workload.Prefill(d, cfg.Mix, cfg.KeyRange, 0.05, cfg.Seed+trial*7919)

	results := make([]workerResult, cfg.Threads)
	stop := make(chan struct{})
	var ready, wg sync.WaitGroup
	ready.Add(cfg.Threads)
	wg.Add(cfg.Threads)
	start := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		go func(worker int) {
			defer wg.Done()
			gen := workload.NewGenerator(cfg.Mix, cfg.KeyRange,
				cfg.Seed^(trial*1_000_003)^int64(worker)*2_654_435_761)
			ready.Done()
			<-start
			begin := time.Now()
			local := int64(0)
			for {
				select {
				case <-stop:
					results[worker] = workerResult{ops: local, elapsed: time.Since(begin)}
					return
				default:
				}
				// Run a small batch between stop checks to keep the
				// measurement overhead negligible.
				for i := 0; i < 64; i++ {
					op, key := gen.Next()
					workload.Apply(d, op, key, workload.DefaultScanSpan)
				}
				local += 64
			}
		}(w)
	}
	ready.Wait()
	close(start)
	time.Sleep(cfg.Duration)
	close(stop)
	// Join the workers under a deadline of several trial durations plus
	// slack. This wait is the trial's hang point: a worker wedged in a retry
	// loop would otherwise hang the whole batch run with no diagnostics.
	// Crashing with a full goroutine dump names the wedge site instead.
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	guard := 4*cfg.Duration + 30*time.Second
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
		// argument blocks, which keep the arguments of each slot's recent
		// SCXs. Everything
		// retired through the layer in this process belongs to this trial's
		// structure, so dropping the leftovers to the garbage collector
		// (and the blocks, which DiscardAll also does) is
		// sound and severs the retention.
		epoch.DiscardAll()
	}
	runtime.KeepAlive(d)
	var ops int64
	var sumElapsed time.Duration
	var throughput float64
	for i := range results {
		r := &results[i]
		ops += r.ops
		sumElapsed += r.elapsed
		throughput += float64(r.ops) / r.elapsed.Seconds()
	}
	return ops, sumElapsed / time.Duration(cfg.Threads), throughput, prefilled
}

// Cell identifies one (mix, key range) cell of the Figure 8 grid.
type Cell struct {
	Mix      workload.Mix
	KeyRange int64
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
	fmt.Fprintf(&b, "workload %s, key range [0,%d)  (millions of operations per second)\n",
		t.Cell.Mix, t.Cell.KeyRange)
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

// PaperKeyRanges returns the key ranges used in Figure 8 of the paper.
func PaperKeyRanges() []int64 { return []int64{100, 10_000, 1_000_000} }

// PaperMixes returns the operation mixes used in Figure 8 of the paper.
func PaperMixes() []workload.Mix {
	return []workload.Mix{workload.Mix50i50d, workload.Mix20i10d, workload.Mix0i0d}
}
