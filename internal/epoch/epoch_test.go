package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sched"
)

// free builds a Func that records how many times the object was freed.
func countingFree(n *atomic.Int64) Func {
	return func(_ *Guard, _ any) bool {
		n.Add(1)
		return true
	}
}

func TestPinReturnsGuardAndUnpinReleases(t *testing.T) {
	g := Pin()
	if g == nil {
		t.Fatal("Pin returned nil with reclamation enabled")
	}
	if g.state.Load() == 0 {
		t.Fatal("pinned guard has a free state word")
	}
	Unpin(g)
	if g.state.Load() != 0 {
		t.Fatal("Unpin did not release the slot")
	}
}

func TestRetireFreesOnlyAfterGracePeriod(t *testing.T) {
	Drain() // start from a clean slate

	var freed atomic.Int64
	g := Pin()
	obj := new(int)
	Retire(g, obj, countingFree(&freed))

	// While the retiring operation itself is still pinned, the object's
	// grace period cannot complete: the pinned slot blocks the second epoch
	// advance. Drain from another goroutine (Drain skips claimed slots).
	var blocked sync.WaitGroup
	blocked.Add(1)
	go func() {
		defer blocked.Done()
		Drain()
	}()
	blocked.Wait()
	if freed.Load() != 0 {
		t.Fatal("object freed while its retirer was still pinned")
	}

	Unpin(g)
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after unpin+drain, want 1", got)
	}
}

func TestRetireBlockedByConcurrentPin(t *testing.T) {
	Drain()

	// A reader pins and stays pinned: it may still hold references to
	// anything retired from now on, so nothing retired after its pin may be
	// freed until it unpins.
	pinned := make(chan *Guard)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g := Pin()
		pinned <- g
		<-release
		Unpin(g)
	}()
	reader := <-pinned
	_ = reader

	var freed atomic.Int64
	g := Pin()
	Retire(g, new(int), countingFree(&freed))
	Unpin(g)

	Drain()
	if freed.Load() != 0 {
		t.Fatal("object freed while a concurrent operation was still pinned")
	}

	close(release)
	<-done
	Drain()
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times after the reader unpinned, want 1", got)
	}
}

func TestRefusedFreeIsRequeued(t *testing.T) {
	Drain()

	// Refuse the first two attempts: the object must stay pending, take a
	// fresh grace period each time, and be freed exactly once in the end.
	var attempts, freed atomic.Int64
	park := func(_ *Guard, _ any) bool {
		if attempts.Add(1) <= 2 {
			return false
		}
		freed.Add(1)
		return true
	}
	g := Pin()
	Retire(g, new(int), park)
	Unpin(g)

	if Drain() != 0 {
		// The refusals may straddle Drain's internal rounds; one more drain
		// must settle it.
		Drain()
	}
	if got := freed.Load(); got != 1 {
		t.Fatalf("object freed %d times, want 1 (attempts %d)", got, attempts.Load())
	}
	if Pending() != 0 {
		t.Fatalf("Pending() = %d after everything freed, want 0", Pending())
	}
}

func TestPendingTracksRetiredObjects(t *testing.T) {
	Drain()
	base := Pending()

	g := Pin()
	const n = 10
	var freed atomic.Int64
	for i := 0; i < n; i++ {
		Retire(g, new(int), countingFree(&freed))
	}
	if got := Pending(); got != base+n {
		t.Fatalf("Pending() = %d after %d retires, want %d", got, n, base+n)
	}
	Unpin(g)
	Drain()
	if got := Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
	if freed.Load() != n {
		t.Fatalf("freed %d objects, want %d", freed.Load(), n)
	}
}

// TestDrainShrinksEmptiedRing retires a burst that grows a slot's retire
// ring, and checks that the Drain that frees the burst gives the ring back
// its minimum length.
func TestDrainShrinksEmptiedRing(t *testing.T) {
	Drain()
	var freed atomic.Int64
	g := Pin()
	const n = 1000
	for i := 0; i < n; i++ {
		Retire(g, new(int), countingFree(&freed))
	}
	grown := len(g.retired.ring)
	Unpin(g)
	Drain()
	if freed.Load() != n {
		t.Fatalf("freed %d of %d retirees", freed.Load(), n)
	}
	if got := len(g.retired.ring); grown <= minRing || got != minRing {
		t.Fatalf("ring of %d entries left at length %d by the drain that emptied it, want %d", grown, got, minRing)
	}
}

// TestRefusedFreeKeepsRetireOrder retires a batch of objects whose
// callbacks refuse their first attempt: re-queuing must preserve the retire
// order, each object must wait out a fresh grace period per refusal, and
// every object must be freed exactly once in the end.
func TestRefusedFreeKeepsRetireOrder(t *testing.T) {
	Drain()

	const n = 5
	var mu sync.Mutex
	var order []int
	attempts := make([]int, n)
	g := Pin()
	for i := 0; i < n; i++ {
		i := i
		Retire(g, new(int), func(_ *Guard, _ any) bool {
			mu.Lock()
			defer mu.Unlock()
			attempts[i]++
			if attempts[i] == 1 {
				return false // refuse once, take a fresh grace period
			}
			order = append(order, i)
			return true
		})
	}
	Unpin(g)
	for round := 0; Pending() != 0 && round < 10; round++ {
		Drain()
	}
	if len(order) != n {
		t.Fatalf("freed %d objects, want %d (attempts %v)", len(order), n, attempts)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("free order %v does not preserve retire order", order)
		}
	}
	for i, a := range attempts {
		if a != 2 {
			t.Fatalf("object %d freed after %d attempts, want exactly 2", i, a)
		}
	}
}

// TestDiscardAllSkipsPinnedSlots: DiscardAll must drop the retire lists of
// quiescent slots without running their callbacks, but leave a pinned
// slot's list untouched — the pinned operation may still reach its retired
// objects, and dropping them would also silently zero the slot's pending
// accounting under it.
func TestDiscardAllSkipsPinnedSlots(t *testing.T) {
	Drain()

	// The reader pins first and stays pinned; its own retired object must
	// survive DiscardAll.
	var pinnedFreed, idleFreed atomic.Int64
	reader := Pin()
	Retire(reader, new(int), countingFree(&pinnedFreed))

	// A second slot retires and unpins: quiescent, so DiscardAll drops its
	// entries without freeing them. (The two Pins hold distinct slots
	// because both are claimed simultaneously.)
	idle := Pin()
	Retire(idle, new(int), countingFree(&idleFreed))
	Unpin(idle)

	DiscardAll()
	if idleFreed.Load() != 0 {
		t.Fatal("DiscardAll ran a free callback (it must drop, not free)")
	}
	if pinnedFreed.Load() != 0 {
		t.Fatal("DiscardAll freed an object retired by a still-pinned slot")
	}
	if got := Pending(); got != 1 {
		t.Fatalf("Pending() = %d after DiscardAll with one pinned slot, want 1", got)
	}

	Unpin(reader)
	Drain()
	if pinnedFreed.Load() != 1 {
		t.Fatalf("pinned slot's object freed %d times after unpin+drain, want 1", pinnedFreed.Load())
	}
	if got := Pending(); got != 0 {
		t.Fatalf("Pending() = %d at quiescence, want 0", got)
	}
}

// TestPinBlocksWhenSlotsExhausted claims every slot, verifies that one more
// Pin spins rather than returning a bogus guard, and that it completes as
// soon as a slot frees up. This is the documented behavior for workloads
// with more goroutines than the 128 padded slots.
func TestPinBlocksWhenSlotsExhausted(t *testing.T) {
	Drain()

	guards := make([]*Guard, NumSlots)
	for i := range guards {
		guards[i] = Pin()
	}
	seen := make(map[*Guard]bool, NumSlots)
	for _, g := range guards {
		if seen[g] {
			t.Fatal("Pin returned the same slot twice while both claims were live")
		}
		seen[g] = true
	}

	got := make(chan *Guard)
	go func() { got <- Pin() }()
	select {
	case g := <-got:
		t.Fatalf("Pin returned %p with every slot claimed", g)
	case <-time.After(50 * time.Millisecond):
		// Expected: the caller is spinning for a free slot.
	}

	Unpin(guards[NumSlots/2])
	var late *Guard
	select {
	case late = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Pin did not complete after a slot was released")
	}
	if late != guards[NumSlots/2] {
		t.Fatalf("blocked Pin got %p, want the released slot %p", late, guards[NumSlots/2])
	}
	Unpin(late)
	for i, g := range guards {
		if i != NumSlots/2 {
			Unpin(g)
		}
	}
	Drain()
}

// TestConcurrentPinRetireUnpin hammers the slot array from many goroutines
// (more than there are CPUs) so claims collide, epochs advance concurrently
// with retires, and slots are handed between goroutines. Every retired
// object must be freed exactly once. Run under -race in CI.
func TestConcurrentPinRetireUnpin(t *testing.T) {
	Drain()

	const goroutines = 16
	const opsPerG = 2000
	var freed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				g := Pin()
				if i%3 == 0 {
					Retire(g, new(int), countingFree(&freed))
				}
				Unpin(g)
			}
		}()
	}
	wg.Wait()
	Drain()
	want := int64(goroutines * ((opsPerG + 2) / 3))
	if got := freed.Load(); got != want {
		t.Fatalf("freed %d objects, want %d", got, want)
	}
	if Pending() != 0 {
		t.Fatalf("Pending() = %d at quiescence, want 0", Pending())
	}
}

// TestGuardLayout pins what the padding and the alignment are for: the slot
// array starts on a cache line and a Guard is a whole number of lines, so the
// state word and the window counter - the two words other goroutines touch -
// share the first line of their slot with no field an owner writes and with
// no neighbour.
func TestGuardLayout(t *testing.T) {
	const line = CacheLine
	if base := uintptr(unsafe.Pointer(&slots[0])); base%line != 0 {
		t.Fatalf("slot array at %#x is not cache-line aligned", base)
	}
	size := unsafe.Sizeof(Guard{})
	if size%line != 0 {
		t.Fatalf("sizeof(Guard) = %d, not a multiple of %d", size, line)
	}
	var g Guard
	if off := unsafe.Offsetof(g.state); off != 0 {
		t.Fatalf("state at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(g.window); off != 8 {
		t.Fatalf("window at offset %d, want 8: beside the state word", off)
	}
	if off := unsafe.Offsetof(g.retired); off != line {
		t.Fatalf("first owner-written field at offset %d, want %d: the start of the second line", off, line)
	}
}

// TestSlotIndexesTheGuard: Slot is the guard's position in the slot array,
// which is what lets another layer keep per-slot state of its own.
func TestSlotIndexesTheGuard(t *testing.T) {
	for i := range slots {
		if got := slots[i].Slot(); got != i {
			t.Fatalf("slots[%d].Slot() = %d", i, got)
		}
	}
	g := Pin()
	defer Unpin(g)
	if &slots[g.Slot()] != g {
		t.Fatalf("Pin returned a guard that Slot() = %d does not index", g.Slot())
	}
}

// TestControllerWorkerPinsItsSlot: under a schedule controller, worker i (in
// Go order) pins slot i on every operation, which keeps the SCX descriptor
// and the publish-window line a worker uses fixed from one replay to the
// next. Outside a controller the probe starts at the stack hint.
func TestControllerWorkerPinsItsSlot(t *testing.T) {
	if h := uint64(0xdead); sched.Slot(h) != h {
		t.Fatalf("sched.Slot(%#x) = %#x outside a controller", h, sched.Slot(h))
	}
	schedules, violations := sched.Explore(sched.Options{}, func(c *sched.Controller) error {
		var got [3][2]int
		for i := range got {
			c.Go(fmt.Sprint("worker-", i), func() {
				for j := range got[i] {
					g := Pin()
					got[i][j] = g.Slot()
					Unpin(g)
				}
			})
		}
		if err := c.Run(); err != nil {
			return err
		}
		for i, s := range got {
			if s != [2]int{i, i} {
				return fmt.Errorf("worker %d pinned slots %v, want %d twice", i, s, i)
			}
		}
		return nil
	})
	for _, v := range violations {
		t.Errorf("schedule %v: %v", v.Schedule, v.Err)
	}
	if schedules != 6 { // the orders in which three one-step workers run
		t.Fatalf("explored %d schedules, want 6", schedules)
	}
}

// TestDiscardAllRunsHookOverClaimedSlots: the discard hook sees exactly the
// slots DiscardAll could claim, while they are claimed.
func TestDiscardAllRunsHookOverClaimedSlots(t *testing.T) {
	Drain()
	held := Pin()
	saved := discardHook
	defer func() { discardHook = saved }()
	calls := 0
	OnDiscard(func(owned *[NumSlots]bool) {
		calls++
		for i := range slots {
			if want := &slots[i] != held; owned[i] != want {
				t.Errorf("owned[%d] = %v, want %v", i, owned[i], want)
			}
			if owned[i] && slots[i].state.Load() == 0 {
				t.Errorf("slot %d reported owned but is not claimed", i)
			}
		}
	})
	DiscardAll()
	Unpin(held)
	if calls != 1 {
		t.Fatalf("discard hook ran %d times, want 1", calls)
	}
	for i := range slots {
		if slots[i].state.Load() != 0 {
			t.Fatalf("slot %d left claimed after DiscardAll", i)
		}
	}
}
