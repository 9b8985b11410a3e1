package chromatic

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/lbst"
	"repro/internal/vcell"
	"repro/internal/workload"
)

// TestNoParkedDescriptors pins the tree's footprint at nodes and cells only.
// A leaf-oriented tree of n keys is n leaves, n internal nodes and n value
// cells, so its live heap is a little over two nodes and a cell per key: 152
// bytes for int64 keys and values. Anything else kept alive per record - an
// SCX-record pinned by every record it last froze (what a garbage-collected
// or reference-counted descriptor costs), or a cell embedded in every node
// that only leaves use - shows up well beyond the ten percent allowed here.
// The tree is built the way the repository benchmark builds its 10^6-key
// workload: Chromatic6, prefilled to the steady-state size of the 20i-10d mix
// with that mix's own inserts and deletes, so most internal nodes have been
// frozen by some SCX.
func TestNoParkedDescriptors(t *testing.T) {
	const keyRange = 150_000 // steady state of 20i-10d: two thirds present
	runtime.GC()
	runtime.GC()
	before := heapAlloc()

	tr := NewOrdered[int64, int64](WithAllowedViolations(6))
	size := workload.Prefill(tr, workload.Mix20i10d, keyRange, 0.01, 1)
	tr.DrainReclaim()
	tr.DrainReclaim()
	runtime.GC()
	runtime.GC() // twice, as before the build, so both readings are taken alike
	perKey := float64(heapAlloc()-before) / float64(size)

	node, cell := heapSize[lbst.Node[int64, int64]](), heapSize[vcell.Cell[int64]]()
	want := float64(2*node + cell)
	t.Logf("%d keys: %.0f heap bytes per key, two nodes and a cell are %.0f (%d + %d on the heap)", size, perKey, want, node, cell)
	if perKey > 1.1*want {
		t.Fatalf("%.0f heap bytes per key, want at most %.0f (two nodes and a cell, plus 10%%): something else stays live per record",
			perKey, 1.1*want)
	}
	runtime.KeepAlive(tr)
}

// TestCellLayout pins the value cell's size, which TestNoParkedDescriptors'
// bound rests on: three words (the two counts, the value word, the box
// pointer), one generation word more under -tags reclaimcheck, and a heap
// size class of exactly that many bytes.
func TestCellLayout(t *testing.T) {
	want := uintptr(24)
	if epoch.PoisonCheck {
		want += 8
	}
	if got := unsafe.Sizeof(vcell.Cell[int64]{}); got != want {
		t.Fatalf("Sizeof(Cell[int64]) = %d, want %d", got, want)
	}
	if got := heapSize[vcell.Cell[int64]](); got != uint64(want) {
		t.Fatalf("a Cell[int64] takes %d heap bytes, want its %d", got, want)
	}
}

// heapSize is the heap footprint of one T: the size class the allocator
// rounds it up to, which unsafe.Sizeof does not see (a build with
// -tags reclaimcheck grows a node and a cell past a class boundary).
func heapSize[T any]() uint64 {
	const n = 4096
	objs := make([]*T, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := heapAlloc()
	for i := range objs {
		objs[i] = new(T)
	}
	after := heapAlloc()
	runtime.KeepAlive(objs)
	return (after - before + n/2) / n
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
