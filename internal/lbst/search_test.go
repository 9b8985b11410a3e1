package lbst

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// plainSearch is the one-child descent of Figure 5 that search replaced:
// it loads only the child the comparison picks. It is the reference search
// must agree with.
func plainSearch[K cmp.Ordered, V any](t *Tree[K, V], key K) (gp, p, l *Node[K, V]) {
	p = t.entry
	l = t.entry.left.Load()
	for a := l.rec.Aux(); a&auxLeaf == 0; a = l.rec.Aux() {
		gp, p = p, l
		if a&auxInf != 0 || cmp.Less(key, l.K) {
			l = l.left.Load()
		} else {
			l = l.right.Load()
		}
	}
	return gp, p, l
}

// searchCase draws the keys of one key type: stored keys, a probe strictly
// between each key and the next larger one (gap), and the two extremes.
type searchCase[K cmp.Ordered] struct {
	draw     func(rng *rand.Rand) K
	gap      func(k K) K
	extremes []K
}

// TestSearchAgreesWithPlainDescent checks that search, which loads both
// children's flags before its comparison resolves, ends at the same
// (gp, p, l) as the one-child descent, at every stored key, in every gap
// between keys and at both extremes, over trees built by random inserts
// and deletes: the empty tree (the sentinel leaf alone, gp nil), a one-key
// tree, and the churned trees in between, with int64, string and float64
// keys (NaN among them, which sorts before every other key).
func TestSearchAgreesWithPlainDescent(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		searchAgreement(t, searchCase[int64]{
			draw:     func(rng *rand.Rand) int64 { return 2 * rng.Int63n(500) }, // even keys: k+1 is a gap
			gap:      func(k int64) int64 { return k + 1 },
			extremes: []int64{math.MinInt64, math.MaxInt64},
		})
	})
	t.Run("string", func(t *testing.T) {
		searchAgreement(t, searchCase[string]{
			draw: func(rng *rand.Rand) string { return fmt.Sprintf("k%03d", rng.Intn(500)) },
			// k+"\x00" is the least string above k, and no drawn key has it.
			gap:      func(k string) string { return k + "\x00" },
			extremes: []string{"", "\xff\xff"},
		})
	})
	t.Run("float64", func(t *testing.T) {
		searchAgreement(t, searchCase[float64]{
			draw: func(rng *rand.Rand) float64 {
				if rng.Intn(50) == 0 {
					return math.NaN()
				}
				return float64(rng.Intn(500)) - 250.5
			},
			gap:      func(k float64) float64 { return k + 0.25 }, // NaN's gap is NaN itself
			extremes: []float64{math.Inf(-1), math.Inf(1), math.NaN()},
		})
	})
}

func searchAgreement[K cmp.Ordered](t *testing.T, c searchCase[K]) {
	rng := rand.New(rand.NewSource(47))
	tr := NewOrdered[K, int64](nopPolicy[K]{})
	var stored []K
	check := func(stage string) {
		t.Helper()
		probes := append(slices.Clone(c.extremes), stored...)
		for _, k := range stored {
			probes = append(probes, c.gap(k))
		}
		for _, k := range probes {
			gp, p, l := tr.search(k)
			rgp, rp, rl := plainSearch(tr, k)
			if gp != rgp || p != rp || l != rl {
				t.Fatalf("%s: search(%v) = (%p, %p, %p), the one-child descent gives (%p, %p, %p)", stage, k, gp, p, l, rgp, rp, rl)
			}
		}
	}
	check("empty tree")
	if gp, p, _ := tr.search(c.extremes[0]); gp != nil || p != tr.entry {
		t.Fatalf("empty tree: search gives gp %p and p %p, want nil and the entry", gp, p)
	}
	first := c.draw(rng)
	tr.Insert(first, 0)
	stored = []K{first}
	check("one-key tree")
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			k := c.draw(rng)
			if rng.Intn(3) == 0 {
				tr.Delete(k)
			} else {
				tr.Insert(k, int64(i))
			}
		}
		stored = tr.Keys()
		check(fmt.Sprintf("round %d (%d keys)", round, len(stored)))
	}
	for _, k := range stored {
		tr.Delete(k)
	}
	stored = nil
	check("emptied tree")
}
