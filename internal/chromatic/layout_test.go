package chromatic

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/epoch"
)

// TestNodeLayout pins the node at one cache line for word-sized keys, and
// for any key type keeps what a search reads - the record with the packed
// weight and flags, the key, the child pointers - inside the first line.
func TestNodeLayout(t *testing.T) {
	if epoch.PoisonCheck {
		t.Skip("-tags reclaimcheck adds the generation word")
	}
	var n node[int64, int64]
	if got := unsafe.Sizeof(n); got != 64 {
		t.Errorf("Sizeof(node[int64,int64]) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(n.rec); got != 16 {
		t.Errorf("Sizeof(llxscx.Record) = %d, want 16: the weight and flags live in its last four bytes", got)
	}
	var s node[string, string]
	if got := unsafe.Sizeof(s); got > 80 {
		t.Errorf("Sizeof(node[string,string]) = %d, want at most 80", got)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"rec", unsafe.Offsetof(s.rec) + unsafe.Sizeof(s.rec)},
		{"k", unsafe.Offsetof(s.k) + unsafe.Sizeof(s.k)},
		{"left", unsafe.Offsetof(s.left) + unsafe.Sizeof(s.left)},
		{"right", unsafe.Offsetof(s.right) + unsafe.Sizeof(s.right)},
	} {
		if f.end > 64 {
			t.Errorf("node[string,string].%s ends at offset %d, outside the node's first line", f.name, f.end)
		}
	}
}

// TestTreeHeaderLayout checks that the fields every operation reads share no
// cache line with the words every committed update writes, wherever the
// allocator puts the header: a full line lies between the two groups.
func TestTreeHeaderLayout(t *testing.T) {
	var tr Tree[int64, int64]
	readEnd := uintptr(0)
	for _, end := range []uintptr{
		unsafe.Offsetof(tr.entry) + unsafe.Sizeof(tr.entry),
		unsafe.Offsetof(tr.less) + unsafe.Sizeof(tr.less),
		unsafe.Offsetof(tr.allowed) + unsafe.Sizeof(tr.allowed),
		unsafe.Offsetof(tr.searchFn) + unsafe.Sizeof(tr.searchFn),
		unsafe.Offsetof(tr.nodePool) + unsafe.Sizeof(tr.nodePool),
		unsafe.Offsetof(tr.cells) + unsafe.Sizeof(tr.cells),
		unsafe.Offsetof(tr.descPool) + unsafe.Sizeof(tr.descPool),
		unsafe.Offsetof(tr.freeNodeFn) + unsafe.Sizeof(tr.freeNodeFn),
	} {
		readEnd = max(readEnd, end)
	}
	writeStart := min(
		unsafe.Offsetof(tr.gver), unsafe.Offsetof(tr.snapLive), unsafe.Offsetof(tr.fastWriters),
		unsafe.Offsetof(tr.roots), unsafe.Offsetof(tr.rootsIdx), unsafe.Offsetof(tr.stats))
	if writeStart < readEnd+64 {
		t.Fatalf("read-mostly fields end at offset %d and per-commit words start at %d: less than a line apart", readEnd, writeStart)
	}
}

// TestPackedWeightRoundTrip covers the accessors the rebalancing steps read
// through: every weight up to maxWeight comes back with either flag set or
// clear, and a weight that overflowed the field reads back negative, which
// CheckInvariants reports.
func TestPackedWeightRoundTrip(t *testing.T) {
	for _, w := range []int32{0, 1, 2, 7, maxWeight - 1, maxWeight} {
		for _, leaf := range []bool{false, true} {
			for _, inf := range []bool{false, true} {
				var n node[int64, int64]
				n.rec.SetAux(aux(w, leaf, inf))
				if n.w() != w || n.IsLeaf() != leaf || n.IsSentinel() != inf {
					t.Fatalf("aux(%d, %v, %v) reads back as (%d, %v, %v)", w, leaf, inf, n.w(), n.IsLeaf(), n.IsSentinel())
				}
			}
		}
	}
	var n node[int64, int64]
	n.rec.SetAux(aux(maxWeight+1, true, false))
	if n.w() >= 0 || !n.IsLeaf() || n.IsSentinel() {
		t.Fatalf("weight maxWeight+1 reads back as (%d, %v, %v), want a negative weight and the flags intact", n.w(), n.IsLeaf(), n.IsSentinel())
	}

	tr := New()
	for k := int64(0); k < 16; k++ {
		tr.Insert(k, k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	below := tr.chromaticRoot().left.Load()
	below.rec.SetAux(aux(maxWeight+1, below.IsLeaf(), below.IsSentinel()))
	if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "negative weight") {
		t.Fatalf("CheckInvariants on a wrapped weight: %v, want a negative-weight error", err)
	}
}
