package lbst

import "repro/internal/epoch"

// ScanStats is RangeScan that also reports how many validated chunks the
// traversal emitted and how many attempts failed validation, so tests can
// tell which scans observed their whole window at one instant.
func (t *Tree[K, V]) ScanStats(lo, hi K, fn func(k K, v V) bool) (count, chunks, retries int) {
	g := epoch.Pin()
	defer epoch.Unpin(g)
	return t.scan(true, lo, true, hi, fn)
}
