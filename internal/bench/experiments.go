package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ravl"
	"repro/internal/workload"
)

// Options controls how the experiment drivers scale the paper's evaluation
// to the machine they run on.
type Options struct {
	// Duration of each timed trial.
	Duration time.Duration
	// Trials per configuration.
	Trials int
	// Threads to sweep; defaults to DefaultThreadCounts().
	Threads []int
	// KeyRanges to sweep; defaults to PaperKeyRanges().
	KeyRanges []int64
	// Mixes to sweep in the Figure-8 grid; defaults to PaperMixes(). Pass
	// Figure8Mixes() to add the scan-heavy mix.
	Mixes []workload.Mix
	// Dists are the key distributions to sweep in the Figure-8 grid;
	// defaults to uniform only (the paper's evaluation). Pass Figure8Dists()
	// to add the zipfian cells.
	Dists []workload.Dist
	// ScanSpan is the key-window width of scan operations; 0 means
	// workload.DefaultScanSpan.
	ScanSpan int64
	// ScanModes are the scan modes to sweep in the Figure-8 grid; defaults
	// to live only (the paper's evaluation). The snapshot mode is measured
	// only for mixes that actually scan — a snapshot-mode sweep over a
	// scan-free mix would duplicate the live cells exactly, so those cells
	// are skipped rather than re-measured.
	ScanModes []workload.ScanMode
	// Structures to include (names from Registry); defaults to all.
	Structures []string
	// Seed for deterministic workloads.
	Seed int64
	// Observe, if non-nil, is called with every Result the experiment
	// drivers measure (cmd/chromatic-bench uses it to collect the rows of
	// its -json output). It is called from the measuring goroutine, between
	// trials, never concurrently.
	Observe func(Result)
}

// observe forwards a measurement to the Observe hook if one is installed.
func (o Options) observe(r Result) {
	if o.Observe != nil {
		o.Observe(r)
	}
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if len(o.Threads) == 0 {
		o.Threads = DefaultThreadCounts()
	}
	if len(o.KeyRanges) == 0 {
		o.KeyRanges = PaperKeyRanges()
	}
	if len(o.Mixes) == 0 {
		o.Mixes = PaperMixes()
	}
	if len(o.Dists) == 0 {
		o.Dists = []workload.Dist{workload.DistUniform}
	}
	if len(o.ScanModes) == 0 {
		o.ScanModes = []workload.ScanMode{workload.ScanLive}
	}
	if len(o.Structures) == 0 {
		o.Structures = Figure8Structures()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figure8 runs the grid of the paper's Figure 8 (operation mix x key range,
// throughput versus thread count for every data structure), extended by the
// key-distribution dimension when Options.Dists lists more than the uniform
// default, and writes one table per cell to w. It returns the tables for
// further inspection (e.g. by the EXPERIMENTS.md generator and tests).
func Figure8(w io.Writer, opts Options) []*Table {
	opts = opts.withDefaults()
	var tables []*Table
	for _, scanMode := range opts.ScanModes {
		for _, dist := range opts.Dists {
			for _, mix := range opts.Mixes {
				if scanMode == workload.ScanSnapshot && mix.ScanPct == 0 {
					// Without scans the mode never dispatches, so these
					// cells would be byte-for-byte repeats of the live grid.
					continue
				}
				for _, keyRange := range opts.KeyRanges {
					table := NewTable(Cell{Mix: mix, KeyRange: keyRange, Dist: dist, ScanMode: scanMode}, opts.Threads, opts.Structures)
					for _, name := range opts.Structures {
						factory, ok := Lookup(name)
						if !ok {
							continue
						}
						for _, threads := range opts.Threads {
							res := Run(Config{
								Factory:  factory,
								Mix:      mix,
								KeyRange: keyRange,
								Threads:  threads,
								Duration: opts.Duration,
								Dist:     dist,
								ScanSpan: opts.ScanSpan,
								ScanMode: scanMode,
								Trials:   opts.Trials,
								Seed:     opts.Seed,
							})
							opts.observe(res)
							table.Add(name, threads, res.Mops())
						}
					}
					fmt.Fprintln(w, table.String())
					tables = append(tables, table)
				}
			}
		}
	}
	return tables
}

// Figure9Row is one bar of Figure 9: a structure's single-threaded
// throughput relative to the sequential red-black tree.
type Figure9Row struct {
	Structure string
	Mix       workload.Mix
	Relative  float64
}

// Figure9 reproduces Figure 9 of the paper: single-threaded throughput of
// every concurrent dictionary relative to the sequential red-black tree
// (java.util.TreeMap in the paper), for each operation mix, on the largest
// key range.
func Figure9(w io.Writer, opts Options) []Figure9Row {
	opts = opts.withDefaults()
	keyRange := opts.KeyRanges[len(opts.KeyRanges)-1]
	var rows []Figure9Row
	fmt.Fprintf(w, "single-threaded throughput relative to the sequential red-black tree, key range [0,%d)\n", keyRange)
	for _, mix := range PaperMixes() {
		base := Run(Config{
			Factory:  SequentialRBTFactory(),
			Mix:      mix,
			KeyRange: keyRange,
			Threads:  1,
			Duration: opts.Duration,
			Trials:   opts.Trials,
			Seed:     opts.Seed,
		})
		opts.observe(base)
		fmt.Fprintf(w, "workload %s (sequential RBT: %.3f Mops/s)\n", mix, base.Mops())
		for _, name := range opts.Structures {
			factory, ok := Lookup(name)
			if !ok {
				continue
			}
			res := Run(Config{
				Factory:  factory,
				Mix:      mix,
				KeyRange: keyRange,
				Threads:  1,
				Duration: opts.Duration,
				Trials:   opts.Trials,
				Seed:     opts.Seed,
			})
			opts.observe(res)
			rel := 0.0
			if base.Throughput > 0 {
				rel = res.Throughput / base.Throughput
			}
			rows = append(rows, Figure9Row{Structure: name, Mix: mix, Relative: rel})
			fmt.Fprintf(w, "  %-12s %6.2fx of sequential RBT (%.3f Mops/s)\n", name, rel, res.Mops())
		}
	}
	return rows
}

// Ratio is one of the headline comparisons from the paper's introduction:
// Chromatic6 versus a competitor at the highest thread count.
type Ratio struct {
	Competitor string
	Mix        workload.Mix
	KeyRange   int64
	Speedup    float64 // Chromatic6 throughput / competitor throughput
}

// HeadlineRatios reproduces the claims of Section 1/6: at the maximum thread
// count, Chromatic6 outperforms the skip list by 13%-156%, the lock-based
// AVL tree by 63%-224% and the STM red-black tree by 13x-134x. It runs
// Chromatic6 against those three competitors on every (mix, key range) cell
// and reports the min/max speedups per competitor.
func HeadlineRatios(w io.Writer, opts Options) []Ratio {
	opts = opts.withDefaults()
	threads := opts.Threads[len(opts.Threads)-1]
	competitors := []string{"SkipList", "LockAVL", "RBSTM"}
	var ratios []Ratio
	for _, mix := range PaperMixes() {
		for _, keyRange := range opts.KeyRanges {
			run := func(name string) Result {
				factory, _ := Lookup(name)
				res := Run(Config{
					Factory:  factory,
					Mix:      mix,
					KeyRange: keyRange,
					Threads:  threads,
					Duration: opts.Duration,
					Trials:   opts.Trials,
					Seed:     opts.Seed,
				})
				opts.observe(res)
				return res
			}
			chro := run("Chromatic6")
			for _, comp := range competitors {
				if keyRange >= 1_000_000 && strings.HasSuffix(comp, "STM") {
					// The paper omits the STM structures on the largest key
					// range because prefilling them takes too long; do the
					// same.
					continue
				}
				r := run(comp)
				speedup := math.Inf(1)
				if r.Throughput > 0 {
					speedup = chro.Throughput / r.Throughput
				}
				ratios = append(ratios, Ratio{Competitor: comp, Mix: mix, KeyRange: keyRange, Speedup: speedup})
				fmt.Fprintf(w, "%-10s %8s key range %-9d Chromatic6/%-10s = %6.2fx\n",
					mix.String(), fmt.Sprintf("%d thr", threads), keyRange, comp, speedup)
			}
		}
	}
	// Summarize min/max per competitor, the form the paper states them in.
	fmt.Fprintln(w)
	for _, comp := range competitors {
		min, max := math.Inf(1), math.Inf(-1)
		for _, r := range ratios {
			if r.Competitor != comp {
				continue
			}
			if r.Speedup < min {
				min = r.Speedup
			}
			if r.Speedup > max {
				max = r.Speedup
			}
		}
		if !math.IsInf(min, 1) {
			fmt.Fprintf(w, "Chromatic6 vs %-12s: %.2fx to %.2fx\n", comp, min, max)
		}
	}
	return ratios
}

// TemplateTreeSeries returns the registry names of the trees built on the
// tree update template, in the order the comparison experiment reports
// them: the paper's chromatic trees, the new relaxed AVL tree and the
// unbalanced BST reference point.
func TemplateTreeSeries() []string {
	return []string{"Chromatic", "Chromatic6", "RAVL", "EBST"}
}

// RAVLReport summarizes the relaxed AVL tree's balance behaviour after the
// comparison workload: how much rebalancing the updates performed, how much
// deferred work was left at quiescence, and how the final height compares
// with the exact AVL bound.
type RAVLReport struct {
	Keys               int
	Height             int
	AVLBound           int
	LeftoverViolations int
	DrainSteps         int
	Cleanups           int64
	HeightFixes        int64
	SingleRotations    int64
	DoubleRotations    int64
}

// RAVLComparison is the Figure-8-style experiment for the relaxed AVL tree:
// it runs the paper's operation mixes and key ranges over the template-based
// trees only (TemplateTreeSeries), so the new tree is compared like-for-like
// with the chromatic trees and the unbalanced BST, and then characterizes
// the relaxed balancing itself with RAVLBalanceReport.
func RAVLComparison(w io.Writer, opts Options) ([]*Table, RAVLReport) {
	opts = opts.withDefaults()
	series := make([]string, 0, len(TemplateTreeSeries()))
	for _, name := range TemplateTreeSeries() {
		if _, ok := Lookup(name); ok {
			series = append(series, name)
		}
	}
	opts.Structures = series
	tables := Figure8(w, opts)
	return tables, RAVLBalanceReport(w, opts)
}

// RAVLBalanceReport characterizes the relaxed balancing on its own: an
// update-heavy run followed by a quiescent drain (RebalanceAll) whose
// result must be an exact AVL tree. The "all" experiment of
// cmd/chromatic-bench uses this directly, since it has already measured the
// Figure-8 grid over every structure.
func RAVLBalanceReport(w io.Writer, opts Options) RAVLReport {
	opts = opts.withDefaults()
	keyRange := opts.KeyRanges[0]
	if len(opts.KeyRanges) > 1 {
		keyRange = opts.KeyRanges[1]
	}
	threads := opts.Threads[len(opts.Threads)-1]
	var tree *ravl.Tree[int64, int64]
	factory := dict.IntFactory{
		Name: "RAVL",
		New: func() dict.IntMap {
			tree = ravl.New()
			return tree
		},
	}
	opts.observe(Run(Config{
		Factory:  factory,
		Mix:      workload.Mix50i50d,
		KeyRange: keyRange,
		Threads:  threads,
		Duration: opts.Duration,
		Trials:   1,
		Seed:     opts.Seed,
	}))
	report := RAVLReport{}
	if tree != nil {
		report.Keys = tree.Size()
		report.LeftoverViolations = tree.CountViolations()
		steps, err := tree.RebalanceAll(ravl.DrainCap(report.Keys))
		report.DrainSteps = steps
		if err != nil {
			fmt.Fprintf(w, "RAVL drain error: %v\n", err)
		}
		report.Height = tree.Height()
		report.AVLBound = ravl.HeightBound(report.Keys)
		s := tree.Stats()
		report.Cleanups = s.Cleanups.Load()
		report.HeightFixes = s.HeightFixes.Load() + s.ChildHeightFixes.Load() + s.MirrorChildHeightFixes.Load()
		report.SingleRotations = s.SingleRotations.Load() + s.MirrorSingleRotations.Load()
		report.DoubleRotations = s.DoubleRotations.Load() + s.MirrorDoubleRotations.Load()
		fmt.Fprintf(w, "RAVL balance report: %s, key range [0,%d), %d threads\n",
			workload.Mix50i50d, keyRange, threads)
		fmt.Fprintf(w, "  n=%d leftover violations at quiescence=%d drained in %d steps\n",
			report.Keys, report.LeftoverViolations, report.DrainSteps)
		fmt.Fprintf(w, "  height after drain=%d (AVL bound %d)\n", report.Height, report.AVLBound)
		fmt.Fprintf(w, "  cleanups=%d height fixes=%d single rotations=%d double rotations=%d\n",
			report.Cleanups, report.HeightFixes, report.SingleRotations, report.DoubleRotations)
	}
	return report
}

// HeightReport is the outcome of the height-bound experiment of Section 5.3.
type HeightReport struct {
	Keys             int
	Height           int
	RedBlackBound    int
	ViolationsDuring int
	ViolationsAfter  int
	IsRedBlackAfter  bool
}

// HeightExperiment validates the O(c + log n) height bound: it runs an
// update-heavy concurrent workload, samples the number of violations while c
// updates are in flight, and then verifies that at quiescence the tree
// contains no violations and its height is within the red-black bound
// 2*log2(n+1) (+2 for the leaf-oriented representation).
func HeightExperiment(w io.Writer, keyRange int64, threads int, duration time.Duration) HeightReport {
	tree := chromatic.New()
	workload.Prefill(tree, workload.Mix50i50d, keyRange, 0.05, 42)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Mix50i50d, keyRange, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				op, key := gen.Next()
				workload.Apply(tree, op, key, gen.ScanSpan())
			}
		}(int64(i) + 1)
	}
	// Sample violations while updates are in flight.
	during := 0
	samples := 0
	deadline := time.After(duration)
sample:
	for {
		select {
		case <-deadline:
			break sample
		default:
		}
		during += tree.CountViolations()
		samples++
		time.Sleep(duration / 20)
	}
	close(stop)
	wg.Wait()
	if samples > 0 {
		during /= samples
	}

	report := HeightReport{
		Keys:             tree.Size(),
		Height:           tree.Height(),
		ViolationsDuring: during,
		ViolationsAfter:  tree.CountViolations(),
		IsRedBlackAfter:  tree.CheckRedBlack() == nil,
	}
	report.RedBlackBound = 2*ceilLog2(report.Keys+1) + 2
	fmt.Fprintf(w, "height experiment: n=%d height=%d red-black bound=%d\n",
		report.Keys, report.Height, report.RedBlackBound)
	fmt.Fprintf(w, "  mean violations while %d updaters were running: %d\n", threads, report.ViolationsDuring)
	fmt.Fprintf(w, "  violations at quiescence: %d (red-black tree: %v)\n",
		report.ViolationsAfter, report.IsRedBlackAfter)
	return report
}

// AblationRow is one row of the Chromatic6 threshold ablation (Section 5.6).
type AblationRow struct {
	Allowed int
	Mops    float64
	Rebal   int64
}

// ViolationThresholdAblation sweeps the number of violations tolerated on a
// search path before rebalancing (the "6" in Chromatic6) and reports
// throughput and the number of rebalancing steps performed on an
// update-heavy workload.
func ViolationThresholdAblation(w io.Writer, opts Options, thresholds []int) []AblationRow {
	opts = opts.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []int{0, 1, 2, 4, 6, 8, 16}
	}
	threads := opts.Threads[len(opts.Threads)-1]
	keyRange := opts.KeyRanges[0]
	if len(opts.KeyRanges) > 1 {
		keyRange = opts.KeyRanges[1]
	}
	var rows []AblationRow
	fmt.Fprintf(w, "Chromatic violation-threshold ablation: %s, key range [0,%d), %d threads\n",
		workload.Mix50i50d, keyRange, threads)
	for _, k := range thresholds {
		k := k
		var tree *chromatic.Tree[int64, int64]
		factory := dict.IntFactory{
			Name: fmt.Sprintf("Chromatic%d", k),
			New: func() dict.IntMap {
				tree = chromatic.New(chromatic.WithAllowedViolations(k))
				return tree
			},
		}
		res := Run(Config{
			Factory:  factory,
			Mix:      workload.Mix50i50d,
			KeyRange: keyRange,
			Threads:  threads,
			Duration: opts.Duration,
			Trials:   1,
			Seed:     opts.Seed,
		})
		opts.observe(res)
		row := AblationRow{Allowed: k, Mops: res.Mops()}
		if tree != nil {
			row.Rebal = tree.Stats().RebalanceTotal()
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "  allowed=%2d  %8.3f Mops/s  rebalancing steps=%d\n", k, row.Mops, row.Rebal)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Allowed < rows[j].Allowed })
	return rows
}

func ceilLog2(n int) int {
	h := 0
	for v := 1; v < n; v *= 2 {
		h++
	}
	return h
}
