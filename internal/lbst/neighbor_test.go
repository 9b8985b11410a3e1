package lbst_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/ravl"
)

// neighborMap is what the model test needs of a tree: the dictionary
// operations and the four public queries that stand on Tree.neighbor.
type neighborMap interface {
	dict.OrderedMap[int64, int64]
	Min() (int64, int64, bool)
	Max() (int64, int64, bool)
}

// TestNeighborAgainstModel compares Successor, Predecessor, Min and Max with
// a sorted slice after every operation of a random insert/delete stream, on
// the three policies through both of each package's constructors. Present keys
// are even, so a probe over every key of [-1, 2*span+1] asks each query below
// the minimum, above the maximum, at a present key and between two keys; the
// stream starts on the empty tree and keeps returning to it and to one key.
func TestNeighborAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func() neighborMap
	}{
		{"EBST/New", func() neighborMap { return ebst.New() }},
		{"EBST/NewOrdered", func() neighborMap { return ebst.NewOrdered[int64, int64]() }},
		{"RAVL/New", func() neighborMap { return ravl.New() }},
		{"RAVL/NewOrdered", func() neighborMap { return ravl.NewOrdered[int64, int64]() }},
		{"Chromatic/New", func() neighborMap { return chromatic.New() }},
		{"Chromatic/NewOrdered", func() neighborMap { return chromatic.NewOrdered[int64, int64]() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const span, steps = 24, 2000
			tr := tc.new()
			var keys []int64 // the model: present keys, ascending; the value is -key
			var sizes [3]int // steps checked on an empty tree, on one key, on more
			rng := rand.New(rand.NewSource(22))
			check := func(step int) {
				t.Helper()
				sizes[min(len(keys), 2)]++
				// want is the model's answer at position i of keys, if there is one.
				want := func(i int) (int64, int64, bool) {
					if i < 0 || i >= len(keys) {
						return 0, 0, false
					}
					return keys[i], -keys[i], true
				}
				same := func(what string, q int64, k, v int64, ok bool, i int) {
					t.Helper()
					if wk, wv, wok := want(i); k != wk || v != wv || ok != wok {
						t.Fatalf("step %d, keys %v: %s(%d) = (%d, %d, %v), want (%d, %d, %v)", step, keys, what, q, k, v, ok, wk, wv, wok)
					}
				}
				k, v, ok := tr.Min()
				same("Min", 0, k, v, ok, 0)
				k, v, ok = tr.Max()
				same("Max", 0, k, v, ok, len(keys)-1)
				for q := int64(-1); q <= 2*span+1; q++ {
					// i is the position of the first key >= q, present says it is q.
					i, present := slices.BinarySearch(keys, q)
					k, v, ok = tr.Predecessor(q)
					same("Predecessor", q, k, v, ok, i-1)
					if present {
						i++
					}
					k, v, ok = tr.Successor(q)
					same("Successor", q, k, v, ok, i)
				}
			}
			check(-1)
			for step := 0; step < steps; step++ {
				// The stream alternates between phases that mostly insert and
				// phases that mostly delete, a present key when there is one, so
				// the tree fills up and runs empty several times over.
				key := 2 * rng.Int63n(span+1)
				del := rng.Intn(10) < 1+8*(step/125%2)
				if del && len(keys) > 0 && rng.Intn(4) > 0 {
					key = keys[rng.Intn(len(keys))]
				}
				i, present := slices.BinarySearch(keys, key)
				if del {
					if _, existed := tr.Delete(key); existed != present {
						t.Fatalf("step %d: Delete(%d) existed = %v, model %v", step, key, existed, present)
					}
					if present {
						keys = slices.Delete(keys, i, i+1)
					}
				} else {
					if _, existed := tr.Insert(key, -key); existed != present {
						t.Fatalf("step %d: Insert(%d) existed = %v, model %v", step, key, existed, present)
					}
					if !present {
						keys = slices.Insert(keys, i, key)
					}
				}
				check(step)
			}
			if sizes[0] < 2 || sizes[1] < 2 || sizes[2] < steps/2 {
				t.Fatalf("the stream left the tree empty %d times, on one key %d times and larger %d times: not every row was asked", sizes[0], sizes[1], sizes[2])
			}
		})
	}
}
