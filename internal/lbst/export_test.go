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

// ReleaseFresh frees a never-published node at once, as a failed update does,
// under the name it was exported by while the policies released their own
// fresh nodes (Step.Commit does now), which TestReleaseFreshDropsReference
// still calls it by.
func (t *Tree[K, V]) ReleaseFresh(n *Node[K, V]) { t.freeNode(n) }
