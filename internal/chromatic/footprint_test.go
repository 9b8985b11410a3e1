package chromatic

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// TestNoParkedDescriptors pins the tree's footprint at nodes only. A
// leaf-oriented tree of n keys is n leaves and n internal nodes, so its live
// heap is a little over two nodes per key; an SCX-record kept alive by every
// record it last froze (what a garbage-collected or reference-counted
// descriptor costs) adds most of another node and a half. The tree is built
// the way the repository benchmark builds its 10^6-key workload: Chromatic6,
// prefilled to the steady-state size of the 20i-10d mix with that mix's own
// inserts and deletes, so most internal nodes have been frozen by some SCX.
func TestNoParkedDescriptors(t *testing.T) {
	const keyRange = 150_000 // steady state of 20i-10d: two thirds present
	runtime.GC()
	runtime.GC()
	before := heapAlloc()

	tr := NewChromatic6()
	size := workload.Prefill(tr, workload.Mix20i10d, keyRange, 0.01, 1)
	tr.DrainReclaim()
	tr.DrainReclaim()
	runtime.GC()
	runtime.GC() // twice: the first only moves the node pool to its victim cache
	perKey := float64(heapAlloc()-before) / float64(size)

	nodeBytes := float64(unsafe.Sizeof(node[int64, int64]{}))
	t.Logf("%d keys: %.0f heap bytes per key, %.2f nodes of %.0f bytes", size, perKey, perKey/nodeBytes, nodeBytes)
	if perKey > 2.6*nodeBytes {
		t.Fatalf("%.0f heap bytes per key is %.2f nodes' worth, want at most 2.6: something besides nodes stays live per record",
			perKey, perKey/nodeBytes)
	}
	runtime.KeepAlive(tr)
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
