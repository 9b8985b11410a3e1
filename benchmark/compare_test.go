package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func reportWith(values map[string]float64, failed int64) *report {
	wr := &workloadReport{Correct: failed == 0, Attempted: 1000, Failed: failed, EndToEnd: map[string]metric{}}
	for name, v := range values {
		wr.EndToEnd[name] = metric{Value: v, Unit: "x"}
	}
	return &report{Seed: 1, Workloads: map[string]*workloadReport{"get-10k": wr}}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", reportWith(map[string]float64{"throughput_ops_s": 1000, "get_p50_ns": 100, "upd_p50_ns": 400}, 0))

	// Every bound is 25 %.
	for _, c := range []struct {
		name    string
		b       *report
		exit    int
		outside int
		want    []string // substrings of the line for get-10k / the metric
	}{
		{"same", reportWith(map[string]float64{"throughput_ops_s": 1000, "get_p50_ns": 100, "upd_p50_ns": 400}, 0), 0, 0, nil},
		{"within", reportWith(map[string]float64{"throughput_ops_s": 760, "get_p50_ns": 124, "upd_p50_ns": 499}, 0), 0, 0, nil},
		{"better", reportWith(map[string]float64{"throughput_ops_s": 5000, "get_p50_ns": 10, "upd_p50_ns": 40}, 0), 0, 0, nil},
		// Throughput is higher-is-better: a drop is what counts.
		{"slower", reportWith(map[string]float64{"throughput_ops_s": 740, "get_p50_ns": 100, "upd_p50_ns": 400}, 0), 1, 1, []string{"throughput_ops_s", "-26.00% of 1000", "outside"}},
		{"latency", reportWith(map[string]float64{"throughput_ops_s": 1000, "get_p50_ns": 126, "upd_p50_ns": 501}, 0), 1, 2, []string{"get_p50_ns", "+26.00% of 100", "outside"}},
		{"missing", reportWith(map[string]float64{"throughput_ops_s": 1000, "upd_p50_ns": 400}, 0), 0, 0, []string{"get_p50_ns", "null"}},
		{"failures", reportWith(map[string]float64{"throughput_ops_s": 1000, "get_p50_ns": 100, "upd_p50_ns": 400}, 3), 1, 1, []string{"failed_frac", "outside"}},
	} {
		var out, errOut bytes.Buffer
		exit := realMain([]string{"-compare", base, write(c.name+".json", c.b)}, &out, &errOut)
		if exit != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, exit, c.exit, out.String(), errOut.String())
		}
		if got := strings.Count(out.String(), "outside"); got != c.outside {
			t.Errorf("%s: %d rows outside, want %d\n%s", c.name, got, c.outside, out.String())
		}
		if c.want == nil {
			continue
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			ok := strings.HasPrefix(line, "get-10k")
			for _, s := range c.want {
				ok = ok && strings.Contains(line, s)
			}
			found = found || ok
		}
		if !found {
			t.Errorf("%s: no get-10k row with %q\n%s", c.name, c.want, out.String())
		}
	}

	var out, errOut bytes.Buffer
	if exit := realMain([]string{"-compare", base}, &out, &errOut); exit != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", exit)
	}
	if exit := realMain([]string{"-workload", "no-such"}, &out, &errOut); exit != 2 || !strings.Contains(errOut.String(), "get-10k") {
		t.Errorf("unknown workload: exit %d, stderr %q; want 2 and the list of workloads", exit, errOut.String())
	}
}
