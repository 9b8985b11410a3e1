// Command benchmark is the repository's benchmark: five closed-loop workloads
// on the paper's key ranges, the latency of each path an operation can take,
// per-layer attribution from outside the layers, and a correctness oracle in
// the timed loop. README.md in this directory says what each workload and
// metric is for; BENCHMARK.json at the repository root declares them.
//
//	go run ./benchmark                       every workload, untraced then traced, and a summary
//	go run ./benchmark -out a.json           ... and the summary's numbers as JSON
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -workload get-10k -seed 7 -seconds 12 -trace 0
//
// The last form is one run, as the pipeline invokes it: its last line of
// output is one JSON object with correct, attempted, failed and metrics
// (every end-to-end metric with -trace 0, every per-layer metric with
// -trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "seed for prefill, operation streams and zipf tables; the only input")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: untraced windows, end-to-end metrics; 1: layer run and traced windows, per-layer metrics")
	out := fs.String("out", "", "with no -workload: write the summary as JSON to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		outside, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if outside > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}

	if *workloadName == "" {
		rep, err := runAll(stdout, stderr, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		rep.print(stdout)
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
		}
		if !rep.correct() {
			return 1
		}
		return 0
	}

	sp, ok := lookupSpec(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have", *workloadName)
		for _, s := range specs {
			fmt.Fprintf(stderr, " %s", s.Name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	window := min(windowLen, time.Duration(*seconds*float64(time.Second)))
	cfg := config{
		seed:     *seed,
		windows:  max(1, int(time.Duration(*seconds*float64(time.Second))/window)),
		window:   window,
		warmup:   warmupLen,
		trace:    *trace == 1,
		out:      stdout,
		probeOps: probeOps,
		spanRing: spanRing,
	}
	if cfg.trace {
		// A traced run splits its seconds between untraced windows (the
		// baseline for the tracing overhead and the counters) and traced ones.
		cfg.windows = max(1, cfg.windows/2)
	}
	res, err := runWorkload(sp, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is what `go run ./benchmark` collects from its per-workload child
// processes, and what -out writes and -compare reads.
type report struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Workers    int                        `json:"workers"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// runAll runs every workload twice, untraced and traced, each run in a
// process of its own so heap, pools and the process-global epoch state never
// carry over from one workload to the next.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Seed: seed, Seconds: seconds, Workers: numWorkers, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]*workloadReport{}}
	for _, sp := range specs {
		wr := &workloadReport{Correct: true}
		rep.Workloads[sp.Name] = wr
		for _, trace := range []int{0, 1} {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", sp.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			// A child that found a wrong answer exits 1 after printing its
			// result; only a child without a result is an error here.
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("workload %s -trace %d: no result (%v): %v", sp.Name, trace, runErr, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
	}
	return rep, nil
}

// print writes the summary: one row per metric, one column per workload.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\nsummary: seed %d, %g s per run, %d workers (closed loop), nproc %d, GOMAXPROCS %d\n", r.Seed, r.Seconds, r.Workers, r.NProc, r.GOMAXPROCS)
	header := func(title string) {
		fmt.Fprintf(w, "\n%-38s %-10s", title, "unit")
		for _, sp := range specs {
			fmt.Fprintf(w, " %18s", sp.Name)
		}
		fmt.Fprintln(w)
	}
	rows := func(decls []metricDecl, pick func(*workloadReport) map[string]metric) {
		for _, d := range decls {
			fmt.Fprintf(w, "%-38s %-10s", d.Name, d.Unit)
			for _, sp := range specs {
				if m, ok := pick(r.Workloads[sp.Name])[d.Name]; ok {
					fmt.Fprintf(w, " %18.6g", m.Value)
				} else {
					fmt.Fprintf(w, " %18s", "null")
				}
			}
			fmt.Fprintln(w)
		}
	}
	header("end to end (untraced runs)")
	rows(endToEnd, func(wr *workloadReport) map[string]metric { return wr.EndToEnd })
	for _, row := range []struct {
		name string
		get  func(*workloadReport) float64
	}{
		{"attempted", func(wr *workloadReport) float64 { return float64(wr.Attempted) }},
		{"failed", func(wr *workloadReport) float64 { return float64(wr.Failed) }},
		{"failed_frac", func(wr *workloadReport) float64 { return ratio(float64(wr.Failed), float64(wr.Attempted)) }},
	} {
		fmt.Fprintf(w, "%-38s %-10s", row.name, "")
		for _, sp := range specs {
			fmt.Fprintf(w, " %18.6g", row.get(r.Workloads[sp.Name]))
		}
		fmt.Fprintln(w)
	}
	header("per layer (traced runs)")
	rows(perLayer, func(wr *workloadReport) map[string]metric { return wr.PerLayer })
}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, the relative change with its base, the bound, and whether the
// change is within it. It returns how many are outside.
func compareFiles(w io.Writer, pathA, pathB string) (outside int, err error) {
	var a, b report
	for _, f := range []struct {
		path string
		into *report
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return 0, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %22s %7s  %s\n", "workload", "metric", "a", "b", "change (base a)", "bound", "")
	for _, sp := range specs {
		for _, d := range endToEnd {
			status, va, vb, change := compareMetric(d, a.Workloads[sp.Name], b.Workloads[sp.Name])
			if status == "outside" {
				outside++
			}
			if status == "null" {
				fmt.Fprintf(w, "%-20s %-20s %14s %14s %22s %6.0f%%  null\n", sp.Name, d.Name, "-", "-", "-", 100*d.Bound)
				continue
			}
			fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %+9.2f%% of %-9.6g %6.0f%%  %s\n", sp.Name, d.Name, va, vb, 100*change, va, 100*d.Bound, status)
		}
		if wa, wb := a.Workloads[sp.Name], b.Workloads[sp.Name]; wa != nil && wb != nil {
			// failed_frac: any increase counts.
			fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
			status := "within"
			if fb > fa {
				status = "outside"
				outside++
			}
			fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %22s %7s  %s\n", sp.Name, "failed_frac", fa, fb, "", "0%", status)
		}
	}
	return outside, nil
}

// compareMetric returns "null" when either side lacks the metric, "outside"
// when b is worse than a by more than the metric's bound, else "within".
// change is (b-a)/a.
func compareMetric(d metricDecl, a, b *workloadReport) (status string, va, vb, change float64) {
	if a == nil || b == nil {
		return "null", 0, 0, 0
	}
	ma, okA := a.EndToEnd[d.Name]
	mb, okB := b.EndToEnd[d.Name]
	if !okA || !okB || ma.Value == 0 {
		return "null", 0, 0, 0
	}
	change = (mb.Value - ma.Value) / ma.Value
	worse := change
	if d.Better == higher {
		worse = -change
	}
	if worse > d.Bound {
		return "outside", ma.Value, mb.Value, change
	}
	return "within", ma.Value, mb.Value, change
}
