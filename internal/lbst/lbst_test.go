package lbst

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
)

// intNode abbreviates the engine's node type at the test's instantiation.
type intNode = Node[int64, int64]

// nopPolicy is the minimal policy at any key type: no decoration, no
// violations.
type nopPolicy[K any] struct{}

func (nopPolicy[K]) SentinelDeco() int64                                       { return 0 }
func (nopPolicy[K]) InsertDecos(_, _ *Node[K, int64]) (_, _, _ int64)          { return 0, 0, 0 }
func (nopPolicy[K]) PromoteDeco(_, _, _ *Node[K, int64]) int64                 { return 0 }
func (nopPolicy[K]) CreatesViolation(_ K, _, _, _ *Node[K, int64]) bool        { return false }
func (nopPolicy[K]) Violation(_, _ *Node[K, int64]) bool                       { return false }
func (nopPolicy[K]) Rebalance(_ *epoch.Guard, _, _, _, _ *Node[K, int64]) bool { return false }

// probePolicy records the engine's policy callbacks so the tests can verify
// the engine honours the contract: the nodes its updates build carry the
// decorations the policy assigns, CreatesViolation is consulted after every
// structural change and a true return triggers a cleanup pass that consults
// Violation along the key's search path.
type probePolicy struct {
	created   atomic.Int64
	violation atomic.Int64
}

func (p *probePolicy) SentinelDeco() int64 { return 3 }
func (p *probePolicy) InsertDecos(_, l *intNode) (internal, leaf, oldLeaf int64) {
	// A leaf comes out redecorated the first time a key is inserted beside
	// it, 5 to 6, and keeps 6 from then on.
	return 7, 5, min(l.Deco()+1, 6)
}
func (p *probePolicy) PromoteDeco(_, p1, s *intNode) int64 { return p1.Deco() + s.Deco() }
func (p *probePolicy) CreatesViolation(_ int64, parent, oldChild, newChild *intNode) bool {
	p.created.Add(1)
	return true
}
func (p *probePolicy) Violation(_, n *intNode) bool {
	p.violation.Add(1)
	return false
}
func (p *probePolicy) Rebalance(_ *epoch.Guard, _, _, _, _ *intNode) bool { return false }

func TestEngineDictionarySemantics(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy[int64]{})
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		key := rng.Int63n(250)
		switch rng.Intn(3) {
		case 0:
			val := rng.Int63()
			old, existed := tr.Insert(key, val)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Insert(%d) mismatch", i, key)
			}
			model[key] = val
		case 1:
			old, existed := tr.Delete(key)
			mOld, mExisted := model[key]
			if existed != mExisted || (existed && old != mOld) {
				t.Fatalf("op %d: Delete(%d) mismatch", i, key)
			}
			delete(model, key)
		default:
			v, ok := tr.Get(key)
			mV, mOk := model[key]
			if ok != mOk || (ok && v != mV) {
				t.Fatalf("op %d: Get(%d) mismatch", i, key)
			}
		}
	}
	if tr.Size() != len(model) {
		t.Fatalf("Size = %d, want %d", tr.Size(), len(model))
	}
	if err := tr.CheckStructure(); err != nil {
		t.Fatalf("CheckStructure: %v", err)
	}
}

func TestEnginePolicyHooks(t *testing.T) {
	pol := &probePolicy{}
	tr := NewOrdered[int64, int64](pol)
	if e := tr.Entry(); e.Deco() != 3 || e.Left().Deco() != 3 {
		t.Fatalf("sentinel decorations = %d, %d, want the policy's 3", e.Deco(), e.Left().Deco())
	}
	leaf := func(key int64) *intNode {
		_, _, l := tr.search(key)
		return l
	}
	// A fresh insert is a structural change below the top sentinel: the
	// engine must consult CreatesViolation and, on true, run a cleanup pass.
	tr.Insert(10, 1)
	if pol.created.Load() != 1 {
		t.Fatalf("CreatesViolation calls after fresh insert = %d, want 1", pol.created.Load())
	}
	// A value-replacing insert is not a structural change.
	tr.Insert(10, 2)
	if pol.created.Load() != 1 {
		t.Fatalf("CreatesViolation consulted for a value-only insert")
	}
	// The nodes an insertion builds carry the decorations the policy assigns.
	// The policy moved the old leaf - key 10, decorated 5 by its own insertion
	// - to 6, so the engine must have finalized it and put a copy, which
	// shares its value, in its place.
	old10 := leaf(10)
	tr.Insert(20, 3)
	if pol.created.Load() != 2 {
		t.Fatalf("CreatesViolation calls after second insert = %d, want 2", pol.created.Load())
	}
	root := tr.Root()
	if root == nil || root.Deco() != 7 || leaf(20).Deco() != 5 {
		t.Fatalf("decorations of the new internal node and leaf = %v, %d, want 7, 5", root, leaf(20).Deco())
	}
	if new10 := leaf(10); new10 == old10 || !old10.Marked() || new10.Deco() != 6 || new10.val != old10.val {
		t.Fatalf("redecorated old leaf: same node %v, old finalized %v, new decoration %d, cell shared %v; want false, true, 6, true",
			new10 == old10, old10.Marked(), new10.Deco(), new10.val == old10.val)
	}
	// Now the policy leaves key 10's leaf at 6, so the next insertion beside it
	// reuses the node itself and finalizes nothing.
	old10 = leaf(10)
	tr.Insert(15, 4)
	if new10 := leaf(10); new10 != old10 || old10.Marked() {
		t.Fatalf("old leaf with an unchanged decoration: same node %v, finalized %v; want true, false", new10 == old10, old10.Marked())
	}
	if v, ok := tr.Get(10); !ok || v != 2 {
		t.Fatalf("Get(10) = %d, %v after two insertions beside it, want 2, true", v, ok)
	}
	if pol.violation.Load() == 0 {
		t.Fatal("cleanup pass never consulted Violation")
	}
	// Deleting a key promotes a copy of the sibling with the decoration the
	// policy computes (here its parent's 7 plus its own 5); structural change
	// again.
	before := pol.created.Load()
	tr.Delete(10)
	if pol.created.Load() != before+1 {
		t.Fatalf("CreatesViolation calls after delete = %d, want %d", pol.created.Load(), before+1)
	}
	if d := leaf(15).Deco(); d != 12 {
		t.Fatalf("promoted sibling's decoration = %d, want 12", d)
	}
	// Deleting an absent key changes nothing.
	tr.Delete(99)
	if pol.created.Load() != before+1 {
		t.Fatalf("CreatesViolation consulted for a no-op delete")
	}
	if err := tr.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOrderedQueriesUnderConcurrency(t *testing.T) {
	tr := NewOrdered[int64, int64](nopPolicy[int64]{})
	const keyRange = 512
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := rng.Int63n(keyRange)
				if rng.Intn(2) == 0 {
					tr.Insert(key, key)
				} else {
					tr.Delete(key)
				}
			}
		}(g)
	}
	// Ordered queries must always return keys consistent with their
	// contract even while the tree churns: Successor(k) > k, Predecessor(k)
	// < k, and returned values match the key (writers always store v = k).
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		key := rng.Int63n(keyRange)
		if k, v, ok := tr.Successor(key); ok {
			if k <= key || v != k {
				t.Fatalf("Successor(%d) = (%d,%d)", key, k, v)
			}
		}
		if k, v, ok := tr.Predecessor(key); ok {
			if k >= key || v != k {
				t.Fatalf("Predecessor(%d) = (%d,%d)", key, k, v)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.CheckStructure(); err != nil {
		t.Fatalf("CheckStructure at quiescence: %v", err)
	}
}
