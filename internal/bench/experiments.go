package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chromatic"
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
	if len(o.Structures) == 0 {
		o.Structures = Names()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figure8 runs the grid of the paper's Figure 8 (its three operation mixes x
// key range, throughput versus thread count for every data structure) and
// writes one table per cell to w. It returns the tables for further
// inspection.
func Figure8(w io.Writer, opts Options) []*Table {
	opts = opts.withDefaults()
	var tables []*Table
	for _, mix := range PaperMixes() {
		for _, keyRange := range opts.KeyRanges {
			table := NewTable(Cell{Mix: mix, KeyRange: keyRange}, opts.Threads, opts.Structures)
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
	return tables
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
				workload.Apply(tree, op, key, workload.DefaultScanSpan)
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

func ceilLog2(n int) int {
	h := 0
	for v := 1; v < n; v *= 2 {
		h++
	}
	return h
}
