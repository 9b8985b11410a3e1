// Command chromatic-bench regenerates the evaluation of Brown, Ellen and
// Ruppert, "A General Technique for Non-blocking Trees" (PPoPP 2014), on the
// local machine.
//
// Experiments:
//
//	figure8   throughput vs thread count for every data structure, for the
//	          3 operation mixes x 3 key ranges of Figure 8
//	height    the O(c + log n) height bound experiment (Section 5.3)
//	all       both, in order
//
// Example:
//
//	chromatic-bench -experiment figure8 -threads 1,2 -duration 1s -json cmd/chromatic-bench/testdata/figure8.json
//
// The defaults are scaled down so the full run finishes in minutes on a
// laptop; the paper's own thread counts assume a large multiprocessor.
//
// -json writes every measured cell as a JSON row. This is the paper's grid,
// for reading and plotting (README.md's Figure 8 table is one such file);
// whether a change made the library faster or slower is judged by the
// repository benchmark (go run ./benchmark), parent against change, and not
// by comparing these raw Mops across runs.
//
// -cpuprofile, -memprofile and -trace write a pprof CPU profile, a heap
// profile taken after the last experiment, and a runtime execution trace
// covering the experiments (go tool pprof / go tool trace read them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/epoch"
)

// jsonRow is one measurement in the machine-readable output produced by
// -json: every timed trial cell the figure8 experiment runs, in the order it
// ran. The schema is kept deliberately flat so the rows can be plotted as
// they are.
type jsonRow struct {
	Structure string  `json:"structure"`
	Mix       string  `json:"mix"`
	KeyRange  int64   `json:"keyrange"`
	Threads   int     `json:"threads"`
	Mops      float64 `json:"mops"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: figure8, height or all")
		duration   = flag.Duration("duration", 1*time.Second, "duration of each timed trial")
		trials     = flag.Int("trials", 1, "trials per configuration (mean is reported)")
		threads    = flag.String("threads", "", "comma-separated thread counts (default: scaled to this machine)")
		keyRanges  = flag.String("keyranges", "", "comma-separated key ranges (default: 100,10000,1000000)")
		structs    = flag.String("structures", "", "comma-separated structure names (default: all registered)")
		seed       = flag.Int64("seed", 1, "workload seed")
		listOnly   = flag.Bool("list", false, "list the registered data structures and exit")
		jsonPath   = flag.String("json", "", "also write every measured cell as JSON rows to this file")
		verbose    = flag.Bool("v", false, "after the experiments, print the reclamation layer's health report")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiments to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile, taken after the experiments, to this file")
		tracePath  = flag.String("trace", "", "write a runtime execution trace of the experiments to this file")
	)
	flag.Parse()

	if *listOnly {
		for _, name := range bench.Names() {
			fmt.Println(name)
		}
		return
	}

	var experiments []string
	switch *experiment {
	case "figure8", "height":
		experiments = []string{*experiment}
	case "all":
		experiments = []string{"figure8", "height"}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want figure8, height or all)\n", *experiment)
		os.Exit(2)
	}

	opts := bench.Options{
		Duration: *duration,
		Trials:   *trials,
		Seed:     *seed,
	}
	var rows []jsonRow
	if *jsonPath != "" {
		opts.Observe = func(r bench.Result) {
			rows = append(rows, jsonRow{
				Structure: r.Config.Factory.Name,
				Mix:       r.Config.Mix.String(),
				KeyRange:  r.Config.KeyRange,
				Threads:   r.Config.Threads,
				Mops:      r.Mops(),
			})
		}
	}
	if *threads != "" {
		opts.Threads = parseInts(*threads)
	}
	if *keyRanges != "" {
		opts.KeyRanges = parseInt64s(*keyRanges)
	}
	if *structs != "" {
		opts.Structures = strings.Split(*structs, ",")
		for _, s := range opts.Structures {
			if _, ok := bench.Lookup(s); !ok {
				fmt.Fprintf(os.Stderr, "unknown data structure %q; use -list to see the registry\n", s)
				os.Exit(2)
			}
		}
	}

	out := os.Stdout
	run := func(name string) {
		switch name {
		case "figure8":
			fmt.Fprintln(out, "=== Figure 8: throughput vs thread count ===")
			bench.Figure8(out, opts)
		case "height":
			fmt.Fprintln(out, "=== Height bound experiment (Section 5.3) ===")
			keyRange := int64(100_000)
			if len(opts.KeyRanges) > 0 {
				keyRange = opts.KeyRanges[len(opts.KeyRanges)-1]
			}
			threads := 8
			if len(opts.Threads) > 0 {
				threads = opts.Threads[len(opts.Threads)-1]
			}
			bench.HeightExperiment(out, keyRange, threads, *duration)
		}
		fmt.Fprintln(out)
	}

	// Profiles cover the experiments only. Every flag is checked above, so
	// a start failure exits before any runs and there is nothing to unwind.
	var stopProfiles []func() error
	startProfile := func(path string, start func(io.Writer) error, stop func()) {
		if path == "" {
			return
		}
		stopProfile, err := profileTo(path, start, stop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			os.Exit(2)
		}
		stopProfiles = append(stopProfiles, stopProfile)
	}
	startProfile(*cpuProfile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	startProfile(*tracePath, trace.Start, trace.Stop)
	for _, name := range experiments {
		run(name)
	}
	if *memProfile != "" {
		stopProfiles = append(stopProfiles, func() error { return writeHeapProfile(*memProfile) })
	}
	for _, stop := range stopProfiles {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rows); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "wrote %d measurements to %s\n", len(rows), *jsonPath)
	}

	if *verbose {
		printHealth(out)
	}
}

// profileTo creates path and starts a profile or trace writing to it; the
// returned function stops it and closes the file.
func profileTo(path string, start func(io.Writer) error, stop func()) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return func() error { stop(); return f.Close() }, nil
}

// writeHeapProfile writes the heap profile after a collection, so it shows
// what is live once the experiments have released their structures.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing the heap profile: %w", err)
	}
	return f.Close()
}

// printHealth prints the reclamation layer's health report. The epoch
// numbers answer "did the trials leave anything pending, and why"; after
// every trial's DrainReclaim the expectation is a report of zeros.
func printHealth(out *os.File) {
	r := epoch.Stats()
	fmt.Fprintln(out, "=== reclamation layer health (epoch.Stats) ===")
	fmt.Fprintf(out, "epoch %d: %d pinned slots, %d stalled slots, %d snapshot pins\n",
		r.Epoch, r.PinnedSlots, r.StalledSlots, r.SnapPins)
	fmt.Fprintf(out, "pending %d (unscanned %d, by age %v)\n",
		r.Pending, r.PendingUnscanned, r.PendingByAge)
	fmt.Fprintf(out, "advance fails %d, free refusals %d, degraded drops %d, evictions %d (recovered %d)\n",
		r.AdvanceFails, r.Refusals, r.DegradedDrops, r.Evictions, r.Recovered)
	fmt.Fprintf(out, "snapshot captures: %d waited for a publish window, the last scanned %d slots\n",
		r.WindowWaits, r.DrainSlots)
}

// writeJSON writes the collected measurements as an indented JSON array, one
// row per measured cell.
func writeJSON(path string, rows []jsonRow) error {
	if rows == nil {
		rows = []jsonRow{} // an experiment with no timed cells still emits a valid array
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "invalid integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInt64s(s string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "invalid integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
