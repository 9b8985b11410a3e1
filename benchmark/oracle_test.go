package main

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quickConfig is a run small enough for go test: 100 ms windows, a 10^5 cap
// on the key range, one set-up, a short probe and span ring, and a layer run
// with 1/200 of the iterations.
func quickConfig(trace bool) config {
	return config{
		seed:      1,
		windows:   2,
		window:    100 * time.Millisecond,
		warmup:    50 * time.Millisecond,
		trace:     trace,
		out:       io.Discard,
		keyCap:    100_000,
		setupReps: 1,
		probeOps:  1 << 12,
		spanRing:  1 << 12,
		layerDiv:  200,
	}
}

// dropsInserts loses every 1000th Insert and reports it as done.
type dropsInserts struct {
	checkedStore
	n atomic.Int64
}

func (b *dropsInserts) Insert(k, v int64) (int64, bool) {
	if b.n.Add(1)%1000 == 0 {
		return 0, false
	}
	return b.checkedStore.Insert(k, v)
}

// staleGets answers every 1000th Get with a value that was never stored.
type staleGets struct {
	checkedStore
	n atomic.Int64
}

func (b *staleGets) Get(k int64) (int64, bool) {
	v, ok := b.checkedStore.Get(k)
	if ok && b.n.Add(1)%1000 == 0 {
		return v + 1, true
	}
	return v, ok
}

func TestOracleCatchesBrokenMaps(t *testing.T) {
	t.Chdir(t.TempDir())
	update, _ := lookupSpec("update-10k")
	get, _ := lookupSpec("get-10k")

	cfg := quickConfig(false)
	res, err := runWorkload(update, cfg)
	if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("sound map: correct=%v failed=%d attempted=%d err=%v", res.Correct, res.Failed, res.Attempted, err)
	}

	var report strings.Builder
	cfg.out = &report
	cfg.wrap = func(m checkedStore) checkedStore { return &dropsInserts{checkedStore: m} }
	res, err = runWorkload(update, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("dropped inserts: correct=%v failed=%d attempted=%d, want an incorrect run with failed_frac 1", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(report.String(), "FAILED key sum") {
		t.Errorf("dropped inserts: the report does not name the key-sum check:\n%s", report.String())
	}

	cfg.out = io.Discard
	cfg.wrap = func(m checkedStore) checkedStore { return &staleGets{checkedStore: m} }
	res, err = runWorkload(get, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed == res.Attempted {
		t.Errorf("stale gets: correct=%v failed=%d attempted=%d, want an incorrect run with some failed operations", res.Correct, res.Failed, res.Attempted)
	}
}
