package vcell

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
)

func TestUnboxedSelection(t *testing.T) {
	if !Unboxed[int64]() || !Unboxed[uint64]() || !Unboxed[int]() ||
		!Unboxed[float64]() || !Unboxed[bool]() || !Unboxed[uint8]() {
		t.Error("word-sized scalar type not selected for unboxed storage")
	}
	if Unboxed[string]() || Unboxed[*int64]() || Unboxed[[]byte]() ||
		Unboxed[struct{ a, b int64 }]() || Unboxed[any]() {
		t.Error("pointer-carrying or oversized type selected for unboxed storage")
	}
	// Named types fall back to boxed storage even when the underlying type
	// qualifies: the conservative choice is always correct.
	type myInt int64
	if Unboxed[myInt]() {
		t.Error("named type selected for unboxed storage")
	}
}

func TestCellRoundTripUnboxed(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 62, -(1 << 62)} {
		c := New(v)
		if got := c.Load(); got != v {
			t.Fatalf("Load = %d, want %d", got, v)
		}
		if old := c.Swap(v + 7); old != v {
			t.Fatalf("Swap returned %d, want %d", old, v)
		}
		if got := c.Load(); got != v+7 {
			t.Fatalf("Load after Swap = %d, want %d", got, v+7)
		}
		c.Store(42)
		if got := c.Load(); got != 42 {
			t.Fatalf("Load after Store = %d, want 42", got)
		}
	}
	// Narrow scalars round-trip through the padded word.
	cb := New(true)
	if !cb.Load() || cb.Swap(false) != true || cb.Load() {
		t.Error("bool cell round trip failed")
	}
	cf := New(3.5)
	if cf.Load() != 3.5 {
		t.Error("float64 cell round trip failed")
	}
}

func TestCellRoundTripBoxed(t *testing.T) {
	c := New("alpha")
	if got := c.Load(); got != "alpha" {
		t.Fatalf("Load = %q, want alpha", got)
	}
	if old := c.Swap("beta"); old != "alpha" {
		t.Fatalf("Swap returned %q, want alpha", old)
	}
	c.Store("gamma")
	if got := c.Load(); got != "gamma" {
		t.Fatalf("Load = %q, want gamma", got)
	}
}

func TestNilCellLoadsZero(t *testing.T) {
	var c *Cell[int64]
	if got := c.Load(); got != 0 {
		t.Fatalf("nil cell Load = %d, want 0", got)
	}
	var s *Cell[string]
	if got := s.Load(); got != "" {
		t.Fatalf("nil cell Load = %q, want empty", got)
	}
}

// TestSwapIsAtomicUnderContention hammers one unboxed cell from many
// goroutines; every displaced value must be observed exactly once (each
// writer publishes distinct values), which fails for any torn or lost
// read-modify-write.
func TestSwapIsAtomicUnderContention(t *testing.T) {
	const writers = 8
	const perWriter = 20000
	c := New(int64(-1))
	var seen [writers * perWriter]atomic.Int32
	var dupes atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				old := c.Swap(int64(w*perWriter + i))
				if old >= 0 {
					if seen[old].Add(1) != 1 {
						dupes.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if last := c.Load(); last >= 0 {
		seen[last].Add(1)
	}
	if dupes.Load() != 0 {
		t.Fatalf("%d values displaced more than once", dupes.Load())
	}
	total := 0
	for i := range seen {
		if n := seen[i].Load(); n == 1 {
			total++
		} else if n > 1 {
			t.Fatalf("value %d observed %d times", i, n)
		}
	}
	if total != writers*perWriter {
		t.Fatalf("observed %d distinct values, want %d", total, writers*perWriter)
	}
}

func TestAllocationProfile(t *testing.T) {
	word := New(int64(1))
	if allocs := testing.AllocsPerRun(1000, func() { word.Store(7) }); allocs != 0 {
		t.Errorf("unboxed Store allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { word.Swap(9) }); allocs != 0 {
		t.Errorf("unboxed Swap allocates %.1f allocs/op, want 0", allocs)
	}
	boxed := New("x")
	if allocs := testing.AllocsPerRun(1000, func() { boxed.Store("y") }); allocs < 1 {
		t.Errorf("boxed Store allocates %.1f allocs/op, expected the box", allocs)
	}
}

// holders is the number of references a live cell counts.
func holders[V any](c *Cell[V]) int32 { return atomic.LoadInt32(&c.refs) + 1 }

// TestCellReleasedAfterLastHolder drops a cell's three references and
// checks that it keeps its value until the last one goes, and is cleared (its
// box dropped, ready for Init) exactly then: only the last Release reports
// that it was the last.
func TestCellReleasedAfterLastHolder(t *testing.T) {
	c := New("v")
	c.Retain()
	c.Retain()
	for want := int32(3); want > 1; want-- {
		if got := holders(c); got != want {
			t.Fatalf("%d holders, want %d", got, want)
		}
		if c.Release() {
			t.Fatalf("Release with %d holders reported the last one", want)
		}
		if got := c.Load(); got != "v" {
			t.Fatalf("cell reads %q with %d holders left, want \"v\"", got, want-1)
		}
	}
	if !c.Release() {
		t.Fatal("the last Release did not report it")
	}
	if c.ptr != nil || c.pubs != 0 {
		t.Fatal("the last release left the cell's content in place")
	}
	if epoch.PoisonCheck {
		mustPanic(t, "Load of a released cell", func() { c.Load() })
		mustPanic(t, "Release of a released cell", func() { c.Release() })
		mustPanic(t, "Retain of a released cell", func() { c.Retain() })
	}
}

// TestCellReinitAfterLastRelease checks the round trip in both
// representations: a cell cleared by its last Release and initialized again
// has one holder, the new value and, under -tags reclaimcheck, a new
// generation.
func TestCellReinitAfterLastRelease(t *testing.T) {
	c := New(int64(7))
	g0 := c.Gen()
	if !c.Release() {
		t.Fatal("the only holder's Release was not the last")
	}
	c.Init(true, 9)
	if holders(c) != 1 || c.Load() != 9 {
		t.Fatalf("reinitialized cell has %d holders and reads %d, want 1 and 9", holders(c), c.Load())
	}
	if epoch.PoisonCheck && c.Gen() == g0 {
		t.Fatal("a reused cell kept its generation")
	}
	b := New("x")
	b.Release()
	b.Init(false, "y")
	if holders(b) != 1 || b.Load() != "y" || b.Swap("z") != "y" || b.Load() != "z" {
		t.Fatal("a boxed cell initialized again does not read and swap its new value")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
