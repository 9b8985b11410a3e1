package epoch

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestDrainWindowsWaitsForOpenWindow: a drain that starts while a window is
// open returns only after it closes, counts itself as having waited, and
// scans exactly the slots below the mark, which covers the pinned one.
func TestDrainWindowsWaitsForOpenWindow(t *testing.T) {
	g := Pin()
	defer Unpin(g)
	if slotMark.Load() <= int64(g.slot) {
		t.Fatalf("slot %d is pinned and not below the mark %d", g.slot, slotMark.Load())
	}
	if g.Window() != SlotWindow(g.Slot()) {
		t.Fatal("SlotWindow(g.Slot()) is not g's window")
	}
	waits := Stats().WindowWaits
	g.Window().Open()
	done := make(chan struct{})
	go func() {
		DrainWindows()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("DrainWindows returned with a window open")
	case <-time.After(20 * time.Millisecond):
	}
	g.Window().Close()
	<-done
	r := Stats()
	if r.WindowWaits != waits+1 {
		t.Fatalf("WindowWaits went from %d to %d, want one more", waits, r.WindowWaits)
	}
	if mark := slotMark.Load(); r.DrainSlots != mark {
		t.Fatalf("the drain scanned %d slots, the mark is %d", r.DrainSlots, mark)
	}
	DrainWindows() // nothing open: returns at once
	if got := Stats().WindowWaits; got != waits+1 {
		t.Fatalf("an idle drain counted as a wait (%d)", got)
	}
}

// testCounters is a bound set of three counters.
func testCounters() (*Counters, *[3]Counter) {
	set, cs := new(Counters), new([3]Counter)
	set.Bind(&cs[0], &cs[1], &cs[2])
	return set, cs
}

// TestCounterBlocksArePrivateLines: two guards pinned on different slots add
// to words at least a cache line apart, on line-aligned blocks, while one
// slot's counters sit together (stripe-major).
func TestCounterBlocksArePrivateLines(t *testing.T) {
	_, cs := testCounters()
	g1, g2 := Pin(), Pin()
	defer Unpin(g1)
	defer Unpin(g2)
	if g1.Slot() == g2.Slot() {
		t.Fatal("two live pins share a slot")
	}
	a, b := uintptr(unsafe.Pointer(cs[0].cell(g1))), uintptr(unsafe.Pointer(cs[0].cell(g2)))
	if a%CacheLine != 0 || b%CacheLine != 0 {
		t.Fatalf("counter blocks at %#x and %#x are not cache-line aligned", a, b)
	}
	if d := max(a, b) - min(a, b); d < unsafe.Sizeof(counterBlock{}) {
		t.Fatalf("the two slots' words are %d bytes apart, want at least a block", d)
	}
	if unsafe.Sizeof(counterBlock{})%CacheLine != 0 {
		t.Fatalf("sizeof(counterBlock) = %d, not whole lines", unsafe.Sizeof(counterBlock{}))
	}
	if c := uintptr(unsafe.Pointer(cs[2].cell(g1))); c != a+16 {
		t.Fatalf("counter 2 of the slot at %#x, want %#x: in the block of counter 0", c, a+16)
	}
	if cs[0].cell(g1) != cs[0].cell(g1) {
		t.Fatal("a slot's block was allocated twice")
	}
}

// TestCounterExactUnderConcurrency: Load is exact once the adders are done,
// whether they counted under a guard or without one.
func TestCounterExactUnderConcurrency(t *testing.T) {
	_, cs := testCounters()
	const adds = 100_000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				g := Pin()
				cs[0].Add(g, 1)
				cs[1].Add(nil, 2)
				Unpin(g)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		cs[0].Load() // racing reads are clean
	}
	wg.Wait()
	if got := cs[0].Load(); got != 2*adds {
		t.Fatalf("Load() = %d after %d adds", got, 2*adds)
	}
	if got := cs[1].Load(); got != 4*adds {
		t.Fatalf("guardless Load() = %d, want %d", got, 4*adds)
	}
	if got := cs[2].Load(); got != 0 {
		t.Fatalf("untouched counter reads %d", got)
	}
}
