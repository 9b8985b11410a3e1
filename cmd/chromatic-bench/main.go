// Command chromatic-bench regenerates the evaluation of Brown, Ellen and
// Ruppert, "A General Technique for Non-blocking Trees" (PPoPP 2014), on the
// local machine.
//
// Experiments:
//
//	figure8   throughput vs thread count for every data structure, for the
//	          3 operation mixes x 3 key ranges of Figure 8 extended by a
//	          scan-heavy mix (5i-5d-50s), a zipfian (hot-key) variant of
//	          every cell, and a snapshot-scan variant of every scanning cell
//	          (each scan captures an O(1) versioned snapshot and walks the
//	          frozen view retry-free); narrow with -mixes/-dists/-scanmode
//	          (with -paper the grid is exactly the paper's: its three mixes,
//	          uniform keys, live scans)
//	figure9   single-threaded throughput relative to the sequential
//	          red-black tree (Figure 9)
//	ratios    the headline Chromatic6-vs-competitor speedups quoted in the
//	          paper's introduction
//	height    the O(c + log n) height bound experiment (Section 5.3)
//	ablation  sweep of the Chromatic6 violation threshold (Section 5.6)
//	ravl      the Figure-8-style series restricted to the template-based
//	          trees (Chromatic, Chromatic6, RAVL, EBST) plus the relaxed
//	          AVL balance report
//	all       every experiment above, in order
//
// Example:
//
//	chromatic-bench -experiment figure8 -duration 2s -keyranges 100,10000,1000000
//	chromatic-bench -experiment figure8 -mixes 50i-50d,5i-5d-50s -dists zipf
//
// The defaults are scaled down so the full run finishes in a few minutes on
// a laptop; pass -paper to use the paper's exact thread counts and key
// ranges (which assume a large multiprocessor and a long run).
//
// -json writes every measured cell as a JSON row. This is the paper's grid,
// for reading and plotting; whether a change made the library faster or
// slower is judged by the repository benchmark (go run ./benchmark), parent
// against change, and not by comparing these raw Mops across runs.
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
	"repro/internal/sched"
	"repro/internal/workload"
)

// jsonRow is one measurement in the machine-readable output produced by
// -json: every timed trial cell any experiment runs, in the order it ran.
// The schema is kept deliberately flat so the rows can be plotted as they
// are. Dist is omitted for uniform keys and ScanMode for live scans.
// ScanP50Ns and ScanP99Ns carry the per-scan-operation latency quantiles for
// cells whose mix scans (0 and omitted otherwise).
type jsonRow struct {
	Structure string  `json:"structure"`
	Mix       string  `json:"mix"`
	KeyRange  int64   `json:"keyrange"`
	Threads   int     `json:"threads"`
	Dist      string  `json:"dist,omitempty"`
	ScanMode  string  `json:"scanmode,omitempty"`
	Mops      float64 `json:"mops"`
	ScanP50Ns int64   `json:"scan_p50_ns,omitempty"`
	ScanP99Ns int64   `json:"scan_p99_ns,omitempty"`
}

// distName renders a workload.Dist for jsonRow: empty for uniform (see
// above), the Dist name otherwise.
func distName(d workload.Dist) string {
	if d == workload.DistUniform {
		return ""
	}
	return d.String()
}

// scanModeName renders a workload.ScanMode for jsonRow: empty for live (see
// above), the mode name otherwise.
func scanModeName(m workload.ScanMode) string {
	if m == workload.ScanLive {
		return ""
	}
	return m.String()
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: figure8, figure9, ratios, height, ablation, ravl or all")
		duration   = flag.Duration("duration", 1*time.Second, "duration of each timed trial")
		trials     = flag.Int("trials", 1, "trials per configuration (mean is reported)")
		threads    = flag.String("threads", "", "comma-separated thread counts (default: scaled to this machine)")
		keyRanges  = flag.String("keyranges", "", "comma-separated key ranges (default: 100,10000,1000000)")
		mixes      = flag.String("mixes", "", "comma-separated operation mixes for figure8, e.g. 50i-50d,5i-5d-50s (default: the paper's three mixes plus the scan-heavy mix)")
		dists      = flag.String("dists", "", "comma-separated key distributions for figure8: uniform,zipf (default: both)")
		scanSpan   = flag.Int64("scanspan", workload.DefaultScanSpan, "key-window width of each range-scan operation")
		scanModes  = flag.String("scanmode", "", "comma-separated scan modes for figure8: live,snapshot (default: both; snapshot cells run only for mixes that scan)")
		structs    = flag.String("structures", "", "comma-separated structure names (default: all registered)")
		seed       = flag.Int64("seed", 1, "workload seed")
		paper      = flag.Bool("paper", false, "use the paper's thread counts (1,32,64,96,128) and key ranges")
		listOnly   = flag.Bool("list", false, "list the registered data structures and exit")
		jsonPath   = flag.String("json", "", "also write every measured cell as JSON rows to this file")
		chaosPPM   = flag.Int("chaos", 0, "parts-per-million delay and preemption injection at every instrumentation point (0 disables; robustness runs, not measurements)")
		chaosSeed  = flag.Int64("chaosseed", 1, "seed for -chaos injection decisions")
		verbose    = flag.Bool("v", false, "after the experiments, print the reclamation layer's health report (and the injection counters under -chaos)")
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

	if *chaosPPM > 0 {
		// Delay and preemption only: the bench workers have no panic
		// recovery and must all run to completion, so the crashy knobs
		// (Panic, Abandon) stay off. The trees stay correct either way -
		// this mode exists to measure throughput under degraded scheduling
		// and to soak the stack outside the test harnesses.
		err := sched.EnableChaos(sched.ChaosConfig{
			Seed:       *chaosSeed,
			Default:    sched.ChaosPolicy{Delay: uint32(*chaosPPM), Preempt: uint32(*chaosPPM)},
			DelaySpins: 128,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(2)
		}
		defer sched.DisableChaos()
	}

	opts := bench.Options{
		Duration: *duration,
		Trials:   *trials,
		Seed:     *seed,
		// The command's figure8 grid defaults to the extended presets: the
		// paper's mixes plus the scan-heavy mix, over uniform and zipfian
		// keys, with scanning cells measured in both scan modes.
		// -mixes/-dists/-scanmode narrow it back down (the library default,
		// used by the other experiments, stays the paper's uniform live grid).
		Mixes:     bench.Figure8Mixes(),
		Dists:     bench.Figure8Dists(),
		ScanSpan:  *scanSpan,
		ScanModes: []workload.ScanMode{workload.ScanLive, workload.ScanSnapshot},
	}
	var rows []jsonRow
	if *jsonPath != "" {
		opts.Observe = func(r bench.Result) {
			rows = append(rows, jsonRow{
				Structure: r.Config.Factory.Name,
				Mix:       r.Config.Mix.String(),
				KeyRange:  r.Config.KeyRange,
				Threads:   r.Config.Threads,
				Dist:      distName(r.Config.Dist),
				ScanMode:  scanModeName(r.Config.ScanMode),
				Mops:      r.Mops(),
				ScanP50Ns: r.ScanP50.Nanoseconds(),
				ScanP99Ns: r.ScanP99.Nanoseconds(),
			})
		}
	}
	if *paper {
		opts.Threads = bench.PaperThreadCounts()
		opts.KeyRanges = bench.PaperKeyRanges()
		opts.Mixes = bench.PaperMixes()
		opts.Dists = nil     // uniform only, as in the paper
		opts.ScanModes = nil // live only, as in the paper
	}
	if *threads != "" {
		opts.Threads = parseInts(*threads)
	}
	if *keyRanges != "" {
		opts.KeyRanges = parseInt64s(*keyRanges)
	}
	if *mixes != "" {
		opts.Mixes = parseMixes(*mixes)
	}
	if *dists != "" {
		opts.Dists = parseDists(*dists)
	}
	if *scanModes != "" {
		opts.ScanModes = parseScanModes(*scanModes)
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
		case "figure9":
			fmt.Fprintln(out, "=== Figure 9: single-threaded throughput relative to the sequential RBT ===")
			bench.Figure9(out, opts)
		case "ratios":
			fmt.Fprintln(out, "=== Headline ratios (Chromatic6 vs competitors at max threads) ===")
			bench.HeadlineRatios(out, opts)
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
		case "ablation":
			fmt.Fprintln(out, "=== Chromatic6 violation-threshold ablation (Section 5.6) ===")
			bench.ViolationThresholdAblation(out, opts, nil)
		case "ravl":
			fmt.Fprintln(out, "=== Relaxed AVL vs the other template-based trees ===")
			bench.RAVLComparison(out, opts)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(out)
	}

	// Profiles cover the experiments only; a start failure exits before any
	// runs, so there is nothing to unwind.
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
	if *experiment == "all" {
		for _, name := range []string{"figure8", "figure9", "ratios", "height", "ablation"} {
			run(name)
		}
		// figure8 above already measured every structure's throughput grid,
		// so finish with just the relaxed AVL balance characterization.
		fmt.Fprintln(out, "=== Relaxed AVL balance report ===")
		bench.RAVLBalanceReport(out, opts)
		fmt.Fprintln(out)
	} else {
		run(*experiment)
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
		printHealth(out, *chaosPPM > 0)
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

// printHealth prints the reclamation layer's health report — and, when
// chaos injection was armed, its counters (read before Disable tears the
// run down). The epoch numbers answer "did the trials leave anything
// pending, and why"; after every trial's DrainReclaim the expectation is a
// report of zeros.
func printHealth(out *os.File, chaosOn bool) {
	r := epoch.Stats()
	fmt.Fprintln(out, "=== reclamation layer health (epoch.Stats) ===")
	fmt.Fprintf(out, "epoch %d: %d pinned slots, %d stalled slots, %d snapshot pins\n",
		r.Epoch, r.PinnedSlots, r.StalledSlots, r.SnapPins)
	fmt.Fprintf(out, "pending %d (parked %d, unscanned %d, by age %v)\n",
		r.Pending, r.Parked, r.PendingUnscanned, r.PendingByAge)
	fmt.Fprintf(out, "advance fails %d, free refusals %d, degraded drops %d, evictions %d (recovered %d)\n",
		r.AdvanceFails, r.Refusals, r.DegradedDrops, r.Evictions, r.Recovered)
	fmt.Fprintf(out, "snapshot captures: %d waited for a publish window, the last scanned %d slots\n",
		r.WindowWaits, r.DrainSlots)
	if chaosOn {
		st := sched.ReadChaosStats()
		fmt.Fprintf(out, "chaos: %+v\n", st)
	}
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

func parseMixes(s string) []workload.Mix {
	var out []workload.Mix
	for _, part := range strings.Split(s, ",") {
		m, err := workload.ParseMix(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		out = append(out, m)
	}
	return out
}

func parseScanModes(s string) []workload.ScanMode {
	var out []workload.ScanMode
	for _, part := range strings.Split(s, ",") {
		m, err := workload.ParseScanMode(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		out = append(out, m)
	}
	return out
}

func parseDists(s string) []workload.Dist {
	var out []workload.Dist
	for _, part := range strings.Split(s, ",") {
		d, err := workload.ParseDist(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		out = append(out, d)
	}
	return out
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
