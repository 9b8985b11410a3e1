package repro

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dict"
	"repro/internal/workload"
)

// TestAllStructuresAgreeSequentially runs one deterministic operation
// sequence against every registered dictionary and a plain Go map and checks
// that every implementation returns exactly the same results. This is the
// cross-implementation differential test tying the whole repository
// together.
func TestAllStructuresAgreeSequentially(t *testing.T) {
	const ops = 8000
	const keyRange = 300
	for _, factory := range bench.Registry() {
		factory := factory
		t.Run(factory.Name, func(t *testing.T) {
			t.Parallel()
			d := factory.New()
			model := map[int64]int64{}
			rng := rand.New(rand.NewSource(2024))
			for i := 0; i < ops; i++ {
				key := rng.Int63n(keyRange)
				switch rng.Intn(3) {
				case 0:
					val := rng.Int63n(1 << 30)
					old, existed := d.Insert(key, val)
					mOld, mExisted := model[key]
					if existed != mExisted || (existed && old != mOld) {
						t.Fatalf("op %d: %s.Insert(%d) = (%d,%v), model (%d,%v)",
							i, factory.Name, key, old, existed, mOld, mExisted)
					}
					model[key] = val
				case 1:
					old, existed := d.Delete(key)
					mOld, mExisted := model[key]
					if existed != mExisted || (existed && old != mOld) {
						t.Fatalf("op %d: %s.Delete(%d) = (%d,%v), model (%d,%v)",
							i, factory.Name, key, old, existed, mOld, mExisted)
					}
					delete(model, key)
				default:
					v, ok := d.Get(key)
					mV, mOk := model[key]
					if ok != mOk || (ok && v != mV) {
						t.Fatalf("op %d: %s.Get(%d) = (%d,%v), model (%d,%v)",
							i, factory.Name, key, v, ok, mV, mOk)
					}
				}
			}
			for k, v := range model {
				if got, ok := d.Get(k); !ok || got != v {
					t.Fatalf("%s: final Get(%d) = (%d,%v), want (%d,true)", factory.Name, k, got, ok, v)
				}
			}
		})
	}
}

// TestPrefillMatchesExpectedSizeForAllStructures checks the Section 6
// prefilling methodology against every implementation that can report its
// size.
func TestPrefillMatchesExpectedSizeForAllStructures(t *testing.T) {
	const keyRange = 1000
	for _, factory := range bench.Registry() {
		factory := factory
		t.Run(factory.Name, func(t *testing.T) {
			t.Parallel()
			d := factory.New()
			got := workload.Prefill(d, workload.Mix20i10d, keyRange, 0.05, 5)
			want := workload.Mix20i10d.ExpectedSize(keyRange)
			if got < want*9/10 || got > want*11/10 {
				t.Fatalf("%s: prefilled to %d, want about %d", factory.Name, got, want)
			}
			if s, ok := d.(dict.Sized); ok {
				if s.Size() != got {
					t.Fatalf("%s: Size() = %d, prefill reported %d", factory.Name, s.Size(), got)
				}
			}
		})
	}
}

// TestOrderedQueriesAgreeAcrossStructures compares Successor/Predecessor
// across every implementation that supports them, on an identical key set.
func TestOrderedQueriesAgreeAcrossStructures(t *testing.T) {
	keys := []int64{5, 10, 17, 23, 42, 77, 100, 151, 200}
	probes := []int64{0, 5, 6, 22, 23, 24, 150, 151, 199, 200, 201}
	for _, factory := range bench.Registry() {
		factory := factory
		d := factory.New()
		om, ok := d.(dict.OrderedMap[int64, int64])
		if !ok {
			continue
		}
		t.Run(factory.Name, func(t *testing.T) {
			for _, k := range keys {
				om.Insert(k, k*3)
			}
			for _, p := range probes {
				wantSucc, haveSucc := modelSuccessor(keys, p)
				gotK, gotV, gotOK := om.Successor(p)
				if gotOK != haveSucc || (haveSucc && (gotK != wantSucc || gotV != wantSucc*3)) {
					t.Errorf("%s: Successor(%d) = (%d,%d,%v), want (%d,_,%v)",
						factory.Name, p, gotK, gotV, gotOK, wantSucc, haveSucc)
				}
				wantPred, havePred := modelPredecessor(keys, p)
				gotK, gotV, gotOK = om.Predecessor(p)
				if gotOK != havePred || (havePred && (gotK != wantPred || gotV != wantPred*3)) {
					t.Errorf("%s: Predecessor(%d) = (%d,%d,%v), want (%d,_,%v)",
						factory.Name, p, gotK, gotV, gotOK, wantPred, havePred)
				}
			}
		})
	}
}

func modelSuccessor(keys []int64, p int64) (int64, bool) {
	var best int64
	found := false
	for _, k := range keys {
		if k > p && (!found || k < best) {
			best, found = k, true
		}
	}
	return best, found
}

func modelPredecessor(keys []int64, p int64) (int64, bool) {
	var best int64
	found := false
	for _, k := range keys {
		if k < p && (!found || k > best) {
			best, found = k, true
		}
	}
	return best, found
}
