package lbst_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/ravl"
)

// scanMap is what the scan tests need of a tree: the dictionary operations
// to build it and the two scans under test.
type scanMap[K any] interface {
	dict.Map[K, int64]
	dict.Ranger[K, int64]
	Ascend(fn func(k K, v int64) bool) int
}

// pair is one emitted (key, value).
type pair[K any] struct {
	k K
	v int64
}

// collect runs scan and returns what it emitted, stopping after stopAt pairs
// (0 = never). It also checks the returned count against the emissions.
func collect[K any](t *testing.T, what string, stopAt int, scan func(fn func(K, int64) bool) int) []pair[K] {
	t.Helper()
	var got []pair[K]
	n := scan(func(k K, v int64) bool {
		got = append(got, pair[K]{k, v})
		return len(got) != stopAt
	})
	if n != len(got) {
		t.Fatalf("%s: returned %d, emitted %d pairs", what, n, len(got))
	}
	return got
}

// scanModelSuite builds a tree holding keyOf(0), keyOf(2), ... (the odd
// positions stay absent) and compares RangeScan and Ascend with the sorted
// model over windows of 1 to 200 keys and around the tree's ends.
func scanModelSuite[K cmp.Ordered](t *testing.T, newTree func() scanMap[K], keyOf func(i int) K) {
	const present = 300 // keys at positions 0, 2, ..., 2*(present-1)

	t.Run("empty", func(t *testing.T) {
		tr := newTree()
		if got := collect(t, "Ascend", 0, tr.Ascend); len(got) != 0 {
			t.Fatalf("Ascend on an empty tree emitted %v", got)
		}
		got := collect(t, "RangeScan", 0, func(fn func(K, int64) bool) int {
			return tr.RangeScan(keyOf(0), keyOf(100), fn)
		})
		if len(got) != 0 {
			t.Fatalf("RangeScan on an empty tree emitted %v", got)
		}
	})

	tr := newTree()
	order := rand.New(rand.NewSource(5)).Perm(present)
	for _, i := range order {
		tr.Insert(keyOf(2*i), int64(2*i))
	}
	model := make([]pair[K], present)
	for i := range model {
		model[i] = pair[K]{keyOf(2 * i), int64(2 * i)}
	}
	// want is the model restricted to positions [lo, hi].
	want := func(lo, hi int) []pair[K] {
		var out []pair[K]
		for _, p := range model {
			if pos := int(p.v); pos >= lo && pos <= hi {
				out = append(out, p)
			}
		}
		return out
	}
	rangeAt := func(lo, hi int) func(fn func(K, int64) bool) int {
		return func(fn func(K, int64) bool) int { return tr.RangeScan(keyOf(lo), keyOf(hi), fn) }
	}

	// Windows by the number of keys they hold, once with both bounds present
	// and once with both absent, starting away from the tree's minimum.
	for _, n := range []int{1, 63, 64, 65, 200} {
		for _, absent := range []bool{false, true} {
			lo, hi := 40, 40+2*(n-1)
			if absent {
				lo, hi = lo-1, hi+1
			}
			what := fmt.Sprintf("RangeScan of %d keys (absent bounds: %v)", n, absent)
			got := collect(t, what, 0, rangeAt(lo, hi))
			if len(got) != n || !slices.Equal(got, want(lo, hi)) {
				t.Fatalf("%s: got %d pairs %v", what, len(got), got)
			}
		}
	}
	for _, w := range []struct {
		name   string
		lo, hi int
	}{
		{"no key inside", 41, 41},
		{"lo above hi", 80, 40},
		{"lo above hi, both absent and adjacent", 43, 41},
		{"below the minimum", -5, -1},
		{"above the maximum", 2 * present, 2*present + 50},
		{"across the minimum", -5, 10},
		{"across the maximum", 2*present - 10, 2*present + 50},
		{"everything", -5, 2*present + 50},
	} {
		got := collect(t, w.name, 0, rangeAt(w.lo, w.hi))
		if !slices.Equal(got, want(w.lo, w.hi)) {
			t.Fatalf("RangeScan %s [%d, %d]: got %v", w.name, w.lo, w.hi, got)
		}
	}
	if got := collect(t, "Ascend", 0, tr.Ascend); !slices.Equal(got, model) {
		t.Fatalf("Ascend: got %d pairs, want the %d-key model", len(got), len(model))
	}

	// fn returning false on the very first key and further in.
	for _, stopAt := range []int{1, 10, 64, 65, 128} {
		got := collect(t, "stopped RangeScan", stopAt, rangeAt(40, 40+2*199))
		if !slices.Equal(got, want(40, 40+2*199)[:stopAt]) {
			t.Fatalf("RangeScan stopped at %d: got %d pairs %v", stopAt, len(got), got)
		}
		got = collect(t, "stopped Ascend", stopAt, tr.Ascend)
		if !slices.Equal(got, model[:stopAt]) {
			t.Fatalf("Ascend stopped at %d: got %d pairs %v", stopAt, len(got), got)
		}
	}
}

func intKey(i int) int64  { return int64(i) }
func strKey(i int) string { return fmt.Sprintf("k%06d", i+1000) } // sorts like i for i >= -1000

func TestScanMatchesModel(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		t.Run("Chromatic", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[int64] { return chromatic.New() }, intKey)
		})
		t.Run("Chromatic6", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[int64] { return chromatic.NewOrdered[int64, int64](chromatic.WithAllowedViolations(6)) }, intKey)
		})
		t.Run("RAVL", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[int64] { return ravl.New() }, intKey)
		})
		t.Run("EBST", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[int64] { return ebst.New() }, intKey)
		})
	})
	t.Run("string", func(t *testing.T) {
		t.Run("Chromatic", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[string] { return chromatic.NewOrdered[string, int64]() }, strKey)
		})
		t.Run("RAVL", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[string] { return ravl.NewOrdered[string, int64]() }, strKey)
		})
		t.Run("EBST", func(t *testing.T) {
			scanModelSuite(t, func() scanMap[string] { return ebst.NewOrdered[string, int64]() }, strKey)
		})
	})
}

// plain is the policy that never restructures anything; unlike EBST's it
// does not compress spines either.
type plain struct{}

func (plain) SentinelDeco() int64                                             { return 0 }
func (plain) InsertDecos(_, _ *lbst.Node[int64, int64]) (_, _, _ int64)       { return 0, 0, 0 }
func (plain) PromoteDeco(_, _, _ *lbst.Node[int64, int64]) int64              { return 0 }
func (plain) CreatesViolation(_ int64, _, _, _ *lbst.Node[int64, int64]) bool { return false }
func (plain) Violation(_, _ *lbst.Node[int64, int64]) bool                    { return false }
func (plain) Rebalance(_ *epoch.Guard, _, _, _, _ *lbst.Node[int64, int64]) bool {
	return false
}

// TestScanDeepSpine scans a tree that descending inserts degenerate into a
// left spine 400 nodes deep, so the walk's stack of set-aside right subtrees
// grows past its buffer on the frame.
func TestScanDeepSpine(t *testing.T) {
	const n = 400
	tr := lbst.NewOrdered[int64, int64](plain{})
	for i := n - 1; i >= 0; i-- {
		tr.Insert(int64(i), int64(i))
	}
	if h := tr.Height(); h < n {
		t.Fatalf("height %d: the tree is not the intended spine", h)
	}
	var want []pair[int64]
	for i := 0; i < n; i++ {
		want = append(want, pair[int64]{int64(i), int64(i)})
	}
	if got := collect(t, "Ascend", 0, tr.Ascend); !slices.Equal(got, want) {
		t.Fatalf("Ascend over the spine: got %d pairs", len(got))
	}
	got := collect(t, "RangeScan", 0, func(fn func(int64, int64) bool) int { return tr.RangeScan(3, 7, fn) })
	if !slices.Equal(got, want[3:8]) {
		t.Fatalf("RangeScan [3, 7] over the spine: got %v", got)
	}
}

// TestScanTokenMoveConcurrent is the property a scan of one version has and
// a Successor-per-key walk lacks. The window always holds a token (value 1)
// among fixed background keys (value 0): the writer inserts the token at a
// new position and only then deletes the old one. A walk that validates key
// by key can pass the new position before the insert and reach the old one
// after the delete, seeing no token at all; a scan that sees the window at
// one instant sees one or two, whatever the window's length. The 512-key
// windows are longer than any chunk a VLX-validated scan could make atomic.
func TestScanTokenMoveConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		newTree func() *lbst.Tree[int64, int64]
		keys    int64 // background keys
	}{
		{"RAVL", func() *lbst.Tree[int64, int64] { return ravl.New().Tree }, 32},
		{"EBST", func() *lbst.Tree[int64, int64] { return ebst.New().Tree }, 32},
		{"RAVL-512", func() *lbst.Tree[int64, int64] { return ravl.New().Tree }, 512},
		{"EBST-512", func() *lbst.Tree[int64, int64] { return ebst.New().Tree }, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			window := 2 * tc.keys // background at even positions, token at an odd one
			tr := tc.newTree()
			for _, i := range rand.New(rand.NewSource(3)).Perm(int(window / 2)) {
				tr.Insert(int64(2*i), 0)
			}
			tr.Insert(1, 1)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var moves atomic.Int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(4))
				at := int64(1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					to := 2*rng.Int63n(window/2) + 1
					if to == at {
						continue
					}
					tr.Insert(to, 1)
					tr.Delete(at)
					at = to
					moves.Add(1)
				}
			}()

			scans := 4000
			if testing.Short() {
				scans = 500
			}
			for moves.Load() == 0 {
				runtime.Gosched() // scan against a writer that is running
			}
			for i := 0; i < scans; i++ {
				tokens, last := 0, int64(-1)
				count := tr.RangeScan(0, window-1, func(k, v int64) bool {
					if k <= last || k < 0 || k >= window || v != k&1 {
						t.Errorf("scan %d emitted (%d, %d) after key %d", i, k, v, last)
					}
					last = k
					tokens += int(v)
					return true
				})
				if tokens < 1 || tokens > 2 || count != int(window/2)+tokens {
					t.Fatalf("scan %d saw %d keys and %d tokens; no instant had that window", i, count, tokens)
				}
			}
			close(stop)
			wg.Wait()
			t.Logf("%d scans of %d keys against %d token moves", scans, window/2+1, moves.Load())
			if err := tr.CheckStructure(); err != nil {
				t.Fatalf("CheckStructure at quiescence: %v", err)
			}
		})
	}
}
