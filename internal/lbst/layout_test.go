package lbst

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/epoch"
)

// TestNodeLayout pins the engine's node at one cache line for word-sized
// keys (the issue allowed 80 bytes; packing the decoration beside the flags
// saves the last 16), and for any key type keeps what a search reads - the
// record with the packed decoration and flags, the key, the child pointers -
// inside the first line.
func TestNodeLayout(t *testing.T) {
	if epoch.PoisonCheck {
		t.Skip("-tags reclaimcheck adds the generation word")
	}
	var n Node[int64, int64]
	if got := unsafe.Sizeof(n); got != 64 {
		t.Errorf("Sizeof(Node[int64,int64]) = %d, want 64", got)
	}
	var s Node[string, string]
	if got := unsafe.Sizeof(s); got > 80 {
		t.Errorf("Sizeof(Node[string,string]) = %d, want at most 80", got)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"rec", unsafe.Offsetof(s.rec) + unsafe.Sizeof(s.rec)},
		{"K", unsafe.Offsetof(s.K) + unsafe.Sizeof(s.K)},
		{"left", unsafe.Offsetof(s.left) + unsafe.Sizeof(s.left)},
		{"right", unsafe.Offsetof(s.right) + unsafe.Sizeof(s.right)},
	} {
		if f.end > 64 {
			t.Errorf("Node[string,string].%s ends at offset %d, outside the node's first line", f.name, f.end)
		}
	}
}

// TestTreeHeaderLayout checks that the fields every operation reads share no
// cache line with the words snapshot capture and release write, wherever the
// allocator puts the header: a full line lies between the two groups.
// (TestUpdatesWriteNoTreeWord checks that updates write neither.)
func TestTreeHeaderLayout(t *testing.T) {
	var tr Tree[int64, int64]
	readEnd := uintptr(0)
	for _, end := range []uintptr{
		unsafe.Offsetof(tr.entry) + unsafe.Sizeof(tr.entry),
		unsafe.Offsetof(tr.pol) + unsafe.Sizeof(tr.pol),
		unsafe.Offsetof(tr.nodePool) + unsafe.Sizeof(tr.nodePool),
		unsafe.Offsetof(tr.cells) + unsafe.Sizeof(tr.cells),
		unsafe.Offsetof(tr.descPool) + unsafe.Sizeof(tr.descPool),
		unsafe.Offsetof(tr.freeNodeFn) + unsafe.Sizeof(tr.freeNodeFn),
	} {
		readEnd = max(readEnd, end)
	}
	writeStart := min(unsafe.Offsetof(tr.gver), unsafe.Offsetof(tr.snapLive))
	if writeStart < readEnd+64 {
		t.Fatalf("read-mostly fields end at offset %d and the written words start at %d: less than a line apart", readEnd, writeStart)
	}
}

// TestUpdatesWriteNoTreeWord is the claim the header layout serves: with no
// snapshot ever taken, inserts, deletes and overwrites from two goroutines
// leave every word of the header's written group as it was, the version
// clock included - what an update writes besides nodes is on the epoch slot
// it holds pinned.
func TestUpdatesWriteNoTreeWord(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy{})
	start := unsafe.Offsetof(tr.gver)
	written := func() []byte {
		return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(tr), start)), unsafe.Sizeof(*tr)-start)
	}
	before := bytes.Clone(written())
	var wg sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w))
			for i := 0; i < 5000; i++ {
				// A third of the calls delete; inserts of a present key are
				// overwrites, and on 200 keys most are.
				if key := rng.Int63n(200); rng.Intn(3) == 0 {
					tr.Delete(key)
				} else {
					tr.Insert(key, rng.Int63())
				}
			}
		}()
	}
	wg.Wait()
	if after := written(); !bytes.Equal(before, after) {
		t.Fatalf("updates wrote the tree header:\nbefore %x\nafter  %x", before, after)
	}
	if v := tr.gver.Load(); v != 0 {
		t.Fatalf("gver = %d with no snapshot ever taken", v)
	}
	s := tr.Snapshot()
	s.Release()
	if v := tr.gver.Load(); v != 1 {
		t.Fatalf("gver = %d after one capture, want 1: captures advance the clock", v)
	}
}

// TestPackedDecoRoundTrip: every decoration up to MaxDeco comes back with
// either flag set or clear, and one that does not fit is refused when the
// node is built rather than truncated.
func TestPackedDecoRoundTrip(t *testing.T) {
	for _, deco := range []int64{0, 1, 7, MaxDeco - 1, MaxDeco} {
		for _, leaf := range []bool{false, true} {
			for _, inf := range []bool{false, true} {
				var n intNode
				n.rec.SetAux(aux(deco, leaf, inf))
				if n.Deco() != deco || n.IsLeaf() != leaf || n.IsSentinel() != inf {
					t.Fatalf("aux(%d, %v, %v) reads back as (%d, %v, %v)", deco, leaf, inf, n.Deco(), n.IsLeaf(), n.IsSentinel())
				}
			}
		}
	}
	tr := NewOrdered[int64, int64](nopPolicy{})
	for _, deco := range []int64{-1, MaxDeco + 1, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InternalNode accepted decoration %d", deco)
				}
			}()
			tr.InternalNode(1, deco, false, nil, nil)
		}()
	}
}
