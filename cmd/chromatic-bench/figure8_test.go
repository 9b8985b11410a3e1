package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// cellKey names one (mix, key range, threads) cell of the Figure 8 grid.
type cellKey struct {
	mix      string
	keyRange int64
	threads  int
}

// TestCommittedFigure8 reads the committed run behind README.md's Figure 8
// table and checks that it is the whole paper grid at threads 1 and 2, and
// that it shows the orderings a 2-CPU host can show: the LLX/SCX trees above
// both STM structures on every update cell, and Chromatic6 at or above
// Chromatic on every update-only cell. A regenerated file that breaks an
// ordering is re-run for that cell, not accommodated here.
func TestCommittedFigure8(t *testing.T) {
	raw, err := os.ReadFile("testdata/figure8.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}

	threads := []int{1, 2}
	mops := make(map[cellKey]map[string]float64)
	for _, r := range rows {
		k := cellKey{r.Mix, r.KeyRange, r.Threads}
		if mops[k] == nil {
			mops[k] = make(map[string]float64)
		}
		if _, dup := mops[k][r.Structure]; dup {
			t.Errorf("%s %v appears twice", r.Structure, k)
		}
		if r.Mops <= 0 {
			t.Errorf("%s %v: mops = %v, want > 0", r.Structure, k, r.Mops)
		}
		mops[k][r.Structure] = r.Mops
	}
	want := len(bench.PaperMixes()) * len(bench.PaperKeyRanges()) * len(threads) * len(bench.Names())
	if len(rows) != want {
		t.Errorf("%d rows, want %d", len(rows), want)
	}
	for _, mix := range bench.PaperMixes() {
		for _, kr := range bench.PaperKeyRanges() {
			for _, th := range threads {
				k := cellKey{mix.String(), kr, th}
				for _, name := range bench.Names() {
					if _, ok := mops[k][name]; !ok {
						t.Errorf("%s %v is missing", name, k)
					}
				}
			}
		}
	}

	for k, cell := range mops {
		if k.mix != workload.Mix50i50d.String() && k.mix != workload.Mix20i10d.String() {
			continue
		}
		for _, tree := range []string{"Chromatic", "Chromatic6", "RAVL", "EBST"} {
			for _, stm := range []string{"RBSTM", "SkipListSTM"} {
				if cell[tree] <= cell[stm] {
					t.Errorf("%v: %s %.3f Mops is not above %s %.3f", k, tree, cell[tree], stm, cell[stm])
				}
			}
		}
		if k.mix == workload.Mix50i50d.String() && cell["Chromatic6"] < cell["Chromatic"] {
			t.Errorf("%v: Chromatic6 %.3f Mops is below Chromatic %.3f", k, cell["Chromatic6"], cell["Chromatic"])
		}
	}
}
