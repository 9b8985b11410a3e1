package repro

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/epoch"
)

// These tests cover the one piece of code an engine tree runs pinned and
// does not control: the callback of a live scan (RangeScan, Ascend). A
// callback that panics must release the scan's epoch slot as it unwinds, and
// one that blocks must not stop reclamation for the process for longer
// than the epoch layer's stall bound, with nothing started to watch it.

// scanner is an engine tree with its two live scans.
type scanner interface {
	dict.Map[int64, int64]
	RangeScan(lo, hi int64, fn func(k, v int64) bool) int
	Ascend(fn func(k, v int64) bool) int
}

// scanCalls runs one of a scanner's two live scans over its whole content.
var scanCalls = []struct {
	name string
	run  func(s scanner, fn func(k, v int64) bool)
}{
	{"RangeScan", func(s scanner, fn func(k, v int64) bool) { s.RangeScan(0, 1<<62, fn) }},
	{"Ascend", func(s scanner, fn func(k, v int64) bool) { s.Ascend(fn) }},
}

// TestPanickingScanCallbackReleasesItsPin: a scan callback panics and the
// caller recovers. The scan's pin must have been released on the way out:
// after 20 rounds of deleting and re-inserting the tree's 1 000 keys, Drain
// frees every retiree, no slot is left pinned, and nothing was evicted,
// since nothing stalled.
func TestPanickingScanCallbackReleasesItsPin(t *testing.T) {
	for _, tgt := range named(targets[int64, int64](), "Chromatic", "EBST", "RAVL") {
		for _, sc := range scanCalls {
			t.Run(tgt.Name+"/"+sc.name, func(t *testing.T) {
				d := tgt.New().(scanner)
				for k := range int64(1000) {
					d.Insert(k, k)
				}
				epoch.Drain()
				evictions := epoch.Stats().Evictions
				func() {
					defer func() {
						if r := recover(); r != "callback" {
							t.Fatalf("recovered %v, want the callback's panic", r)
						}
					}()
					sc.run(d, func(k, v int64) bool { panic("callback") })
				}()
				for range 20 {
					for k := range int64(1000) {
						d.Delete(k)
						d.Insert(k, k)
					}
				}
				if n := epoch.Drain(); n != 0 {
					t.Fatalf("Pending = %d after Drain (stats: %+v)", n, epoch.Stats())
				}
				if s := epoch.Stats(); s.PinnedSlots != 0 || s.StalledSlots != 0 || s.Evictions != evictions {
					t.Fatalf("%d slots pinned, %d stalled and %d evicted after the scan returned (stats: %+v)",
						s.PinnedSlots, s.StalledSlots, s.Evictions-evictions, s)
				}
			})
		}
	}
}

// TestBlockedScanCallbackIsEvicted: a RangeScan callback blocks for twice
// the epoch layer's stall bound while two goroutines churn updates, with no
// call made to handle it. The churners' retires evict the scan's slot once
// it has held its epoch for the stall bound. From then on the layer is in
// degraded mode: the eviction drops the backlog of every idle slot to the
// collector, and each churner's drain, every 64 retires, drops its whole
// list. So from half the stall bound after the eviction on, Pending stays
// under pendingBound (two churners' 64 retires between drains, with room
// for what a churner leaves on a slot it stops using), where without the
// eviction it would hold every retire since the scan pinned. When the
// callback returns the scan unpins, the churners' drains count the
// recovery and leave degraded mode, and retirees are recycled again.
func TestBlockedScanCallbackIsEvicted(t *testing.T) {
	const (
		stallAfter   = 100 * time.Millisecond // internal/epoch's stall bound
		pendingBound = 1024
	)
	d := named(targets[int64, int64](), "Chromatic")[0].New().(scanner)
	for k := range int64(1000) {
		d.Insert(k, k)
	}
	epoch.Drain()
	base := epoch.Stats()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Int64N(1000)
				d.Delete(k)
				d.Insert(k, k)
			}
		}()
	}
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()

	var peak, settled int64
	var evictedAt time.Time
	d.RangeScan(0, 999, func(k, v int64) bool {
		start := time.Now()
		for now := start; now.Sub(start) < 2*stallAfter || evictedAt.IsZero() || now.Sub(evictedAt) < stallAfter; now = time.Now() {
			if now.Sub(start) > 10*time.Second {
				t.Fatalf("no eviction after the callback blocked 10 s (stats: %+v)", epoch.Stats())
			}
			time.Sleep(time.Millisecond)
			s := epoch.Stats()
			switch {
			case s.Evictions == base.Evictions:
				peak = max(peak, s.Pending)
			case evictedAt.IsZero():
				evictedAt = now
			case now.Sub(evictedAt) > stallAfter/2:
				settled = max(settled, s.Pending)
			}
		}
		return false
	})
	t.Logf("pending: peak %d before the eviction, %d from half the stall bound after it", peak, settled)
	if settled >= pendingBound {
		t.Errorf("Pending reached %d after the eviction, want under %d", settled, pendingBound)
	}

	waitUntil := func(what string, cond func(s epoch.Report) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(epoch.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats: %+v)", what, epoch.Stats())
			}
		}
	}
	waitUntil("the churners to notice the recovery", func(s epoch.Report) bool {
		return s.Recovered > base.Recovered && s.StalledSlots == 0
	})
	close(stop)
	wg.Wait()
	epoch.Drain()
	drops := epoch.Stats().DegradedDrops
	for k := range int64(1000) {
		d.Delete(k)
		d.Insert(k, k)
	}
	if n := epoch.Drain(); n != 0 {
		t.Fatalf("Pending = %d after Drain", n)
	}
	if s := epoch.Stats(); s.DegradedDrops != drops {
		t.Fatalf("%d retirees dropped to the collector after the recovery: degraded mode did not exit", s.DegradedDrops-drops)
	}
}
