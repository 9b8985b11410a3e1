package epoch

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// resetSlotMark lowers the slot mark to the hint range, as in a process that
// has pinned no slot past it, so a test can read what its own pins raise it
// to. Every slot scan stops at the mark, so it requires that no slot be
// claimed or have a window open, and that none past the hint range hold a
// retiree once Drain has run.
func resetSlotMark(t *testing.T) {
	t.Helper()
	Drain()
	for i := range slots {
		if slots[i].state.Load() != 0 || slots[i].window.n.Load() != 0 {
			t.Fatalf("slot %d is claimed or has a window open", i)
		}
		if n := slots[i].pending.Load(); i >= hintSlots && n != 0 {
			t.Fatalf("slot %d, past the hint range, holds %d retirees", i, n)
		}
	}
	slotMark.Store(int64(hintSlots))
}

// pinAtDepth pins, opens and closes a window on its guard, and unpins, from
// a frame about depth KB below its caller's. The padding is in the result so
// that it stays in the frame.
//
//go:noinline
func pinAtDepth(depth int) byte {
	var pad [1024]byte
	if depth > 0 {
		return pinAtDepth(depth-1) + pad[depth%len(pad)]
	}
	g := Pin()
	g.Window().Open()
	g.Window().Close()
	Unpin(g)
	return 0
}

// TestDrainSlotsStayNearTheProcessors: 60 waves of two fresh goroutines
// each pin and open and close a window, and each wave ends with a capture's
// DrainWindows. Each wave pins from stack addresses of its own (wave w a KB
// deeper than wave w-1), as goroutines on fresh stacks do. The slots a
// capture scans stay within the hint range, plus the one slot past it that
// the second of two colliding pins probes to, however many goroutines and
// stacks have pinned.
func TestDrainSlotsStayNearTheProcessors(t *testing.T) {
	resetSlotMark(t)
	for w := range 60 {
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pinAtDepth(w)
			}()
		}
		wg.Wait()
		DrainWindows()
	}
	if got, bound := Stats().DrainSlots, int64(2*runtime.GOMAXPROCS(0)+1); got > bound {
		t.Fatalf("a capture scanned %d slots after 60 waves of two goroutines, want at most %d", got, bound)
	}
}

// TestOverflowSlotsLieBelowTheMark: twice the hint range plus one goroutines
// pin at once, so some pins probe past the range. Each claimed slot lies
// below the mark, and a DrainWindows running while every one of them holds a
// window open waits for the window on the highest slot too.
func TestOverflowSlotsLieBelowTheMark(t *testing.T) {
	resetSlotMark(t)
	n := min(2*hintSlots+1, NumSlots)
	pinned := make(chan int, n)
	closeAll, closeTop := make(chan struct{}), make(chan struct{})
	top := 0 // the highest slot pinned, read once closeAll is closed
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := Pin()
			g.Window().Open()
			pinned <- g.Slot()
			<-closeAll
			if g.Slot() == top {
				<-closeTop
			}
			g.Window().Close()
			Unpin(g)
		}()
	}
	for range n {
		top = max(top, <-pinned)
	}
	if mark := slotMark.Load(); int64(top) >= mark {
		t.Fatalf("slot %d is claimed at mark %d", top, mark)
	}
	if n > hintSlots && top < hintSlots {
		t.Fatalf("%d pins at once all landed below the hint range %d", n, hintSlots)
	}
	drained := make(chan struct{})
	go func() {
		DrainWindows()
		close(drained)
	}()
	close(closeAll)
	select {
	case <-drained:
		t.Fatalf("DrainWindows returned with the window on slot %d open", top)
	case <-time.After(20 * time.Millisecond):
	}
	close(closeTop)
	<-drained
	wg.Wait()
	if got := Stats().DrainSlots; got <= int64(top) {
		t.Fatalf("the drain scanned %d slots, slot %d was pinned", got, top)
	}
}
