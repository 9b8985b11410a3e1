package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRegistryCoversPaperStructures(t *testing.T) {
	want := []string{"Chromatic", "Chromatic6", "SkipList", "LockAVL", "EBST", "RBSTM", "SkipListSTM", "RBGlobal"}
	names := Names()
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry is missing %q", w)
		}
	}
	for _, name := range names {
		f, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		d := f.New()
		if d == nil {
			t.Fatalf("factory %q returned nil", name)
		}
		// Smoke-test the dictionary contract.
		if _, existed := d.Insert(1, 10); existed {
			t.Errorf("%s: fresh insert reported existed", name)
		}
		if v, ok := d.Get(1); !ok || v != 10 {
			t.Errorf("%s: Get(1) = (%d,%v), want (10,true)", name, v, ok)
		}
		if _, existed := d.Delete(1); !existed {
			t.Errorf("%s: Delete(1) reported missing", name)
		}
	}
	if _, ok := Lookup("NoSuchStructure"); ok {
		t.Error("Lookup of unknown structure succeeded")
	}
}

func TestRunProducesThroughput(t *testing.T) {
	factory, _ := Lookup("Chromatic")
	res := Run(Config{
		Factory:  factory,
		Mix:      workload.Mix20i10d,
		KeyRange: 1000,
		Threads:  2,
		Duration: 50 * time.Millisecond,
		Trials:   2,
		Seed:     1,
	})
	if res.Ops <= 0 {
		t.Fatal("no operations performed")
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.Mops() <= 0 {
		t.Fatal("Mops not positive")
	}
	want := workload.Mix20i10d.ExpectedSize(1000)
	if res.PrefillLen < want/2 || res.PrefillLen > 2*want {
		t.Fatalf("prefill size %d wildly off expected %d", res.PrefillLen, want)
	}
}

func TestTableFormattingAndQueries(t *testing.T) {
	table := NewTable(Cell{Mix: workload.Mix50i50d, KeyRange: 100}, []int{1, 2}, []string{"A", "B"})
	table.Add("A", 1, 1.5)
	table.Add("A", 2, 2.5)
	table.Add("B", 1, 1.0)
	table.Add("B", 2, 5.0)
	out := table.String()
	if !strings.Contains(out, "50i-50d") || !strings.Contains(out, "key range [0,100)") {
		t.Errorf("table header missing cell description:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("table missing structure columns:\n%s", out)
	}
	// Adding an unknown structure extends the table.
	table.Add("C", 1, 0.5)
	if _, ok := table.Mops["C"]; !ok {
		t.Error("Add of new structure did not extend the table")
	}
}

func TestDefaultThreadCounts(t *testing.T) {
	counts := DefaultThreadCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("DefaultThreadCounts = %v, want leading 1", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("thread counts not strictly increasing: %v", counts)
		}
	}
	if got := PaperKeyRanges(); len(got) != 3 || got[2] != 1_000_000 {
		t.Fatalf("PaperKeyRanges = %v", got)
	}
	if got := PaperMixes(); len(got) != 3 {
		t.Fatalf("PaperMixes = %v", got)
	}
}

func TestHeightExperimentReportsBalancedTree(t *testing.T) {
	rep := HeightExperiment(io.Discard, 4096, 4, 200*time.Millisecond)
	if rep.Keys == 0 {
		t.Fatal("height experiment ran on an empty tree")
	}
	if !rep.IsRedBlackAfter {
		t.Fatal("tree is not a red-black tree at quiescence")
	}
	if rep.ViolationsAfter != 0 {
		t.Fatalf("violations at quiescence = %d, want 0", rep.ViolationsAfter)
	}
	if rep.Height > rep.RedBlackBound {
		t.Fatalf("height %d exceeds red-black bound %d", rep.Height, rep.RedBlackBound)
	}
}

func TestFigure8SmallScale(t *testing.T) {
	var sb strings.Builder
	opts := Options{
		Duration:   25 * time.Millisecond,
		KeyRanges:  []int64{256},
		Structures: []string{"Chromatic6", "SkipList"},
		Threads:    []int{1, 2},
	}
	tables := Figure8(&sb, opts)
	if len(tables) != 3 { // 3 mixes x 1 key range
		t.Fatalf("Figure8 returned %d tables, want 3", len(tables))
	}
	for _, table := range tables {
		for _, s := range []string{"Chromatic6", "SkipList"} {
			for _, th := range []int{1, 2} {
				if v, ok := table.Mops[s][th]; !ok || v <= 0 {
					t.Fatalf("cell %s/%s/%d threads missing or zero", table.Cell.Mix, s, th)
				}
			}
		}
	}
	if !strings.Contains(sb.String(), "key range [0,256)") {
		t.Error("Figure8 output missing key range header")
	}
}
