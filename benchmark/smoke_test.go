package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations: BENCHMARK.json declares exactly the
// workloads and metrics of spec.go, within the run contract's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || time.Duration(m.RunSeconds)*time.Second < 20*windowLen {
		t.Errorf("run_seconds = %d, want at most 60 and at least twenty %v windows, or a best decile is a single window", m.RunSeconds, windowLen)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in spec.go", len(m.Workloads), len(specs))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: manifest has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("manifest has %d+%d metrics, spec.go %d+%d (limits 16+128)", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, e := range m.EndToEnd {
		name(e.Name)
		d := endToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: manifest %+v, spec.go %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit, direction or bound outside the contract: %+v", e.Name, e)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, e := range m.PerLayer {
		name(e.Name)
		d := perLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: manifest %+v, spec.go %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) {
			t.Errorf("per_layer %s: unit or direction outside the contract: %+v", e.Name, e)
		}
	}
}

// TestSmokeEveryWorkload runs every workload untraced and traced (with the
// layer run) at quickConfig's size, and checks that each run is correct and
// emits exactly the declared metrics. go test ./... picks it up, so the
// existing CI job keeps the benchmark running.
func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	t.Chdir(t.TempDir())
	start := time.Now()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			res, err := runWorkload(sp, quickConfig(trace))
			t.Logf("%s trace=%v: %v", sp.Name, trace, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			for name, got := range res.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s trace=%v: emits undeclared metric %s", sp.Name, trace, name)
				}
				if got.Unit != unit || unit == "" {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", sp.Name, trace, name, got.Unit, unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.Name, name, got.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v: declared metric %s is missing", sp.Name, trace, name)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not marshal: %v", sp.Name, trace, err)
			}
		}
		checkSpanFile(t, sp)
	}
	// About 10 s on this box; not asserted, its speed swings by a factor of two.
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
}

// checkSpanFile reads the traced run's span file back: every span's parent
// exists and contains it, and a snapscan has its three children.
func checkSpanFile(t *testing.T, sp spec) {
	t.Helper()
	f, err := os.Open(filepath.Join(".bench_build", "spans-"+sp.Name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		ID, Parent, Name string
		Start            int64 `json:"start_ns"`
		End              int64 `json:"end_ns"`
	}
	byID := map[string]rec{}
	var all []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s span file: %v in %q", sp.Name, err, sc.Text())
		}
		byID[r.ID] = r
		all = append(all, r)
	}
	children := map[string]int{}
	ops := 0
	for _, r := range all {
		if r.ID == "run" {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Fatalf("%s: span %s has unknown parent %q", sp.Name, r.ID, r.Parent)
		}
		if r.Start < p.Start || r.End > p.End || r.End < r.Start {
			t.Errorf("%s: span %s [%d,%d] is not inside its parent %s [%d,%d]", sp.Name, r.ID, r.Start, r.End, p.ID, p.Start, p.End)
		}
		if p.Name == "snapscan" {
			children[p.ID]++
		}
		if p.Name == "window" {
			ops++
		}
	}
	if ops == 0 {
		t.Errorf("%s: no operation spans", sp.Name)
	}
	for _, r := range all {
		if r.Name == "snapscan" && children[r.ID] != 3 {
			t.Errorf("%s: snapscan span %s has %d children, want 3", sp.Name, r.ID, children[r.ID])
		}
	}
	if sp.Mix.ScanPct > 0 && len(children) == 0 {
		t.Errorf("%s: no snapscan spans in a scanning workload", sp.Name)
	}
}
