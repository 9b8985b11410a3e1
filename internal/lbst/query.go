package lbst

import (
	"cmp"

	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/sched"
)

// This file implements the ordered point queries of Section 5.5 of the
// paper, once for every tree built on the engine, whatever its key and value
// types. (The range scans walk a versioned cut instead: see scan in
// snapshot.go.)
//
// Successor, Predecessor, Min and Max are one query over a side, neighbor: an
// ordinary BST search using LLX to read child pointers, which returns the
// leaf it reaches if that already answers the query and otherwise locates
// the neighbouring leaf and validates the connecting path with one VLX. Min
// and Max are the query for an infinite key, which is a flag and not a value
// of K, so no "smallest possible key" sentinel value is ever needed - which
// is what lets the queries work for arbitrary key types.

// genOf reads the reclamation generation of n and, for a leaf, of its value
// cell for the poisoning assertions. Compiled out unless -tags reclaimcheck.
func genOf[K, V any](n *Node[K, V]) uint64 {
	if !epoch.PoisonCheck {
		return 0
	}
	return n.Gen()
}

// assertGen panics if the generation of a node or of its value cell changed
// while the (pinned) query held it: the reclamation layer recycled memory a
// reader could still reach, which the grace-period argument in DESIGN.md
// says must never happen.
func assertGen[K, V any](n *Node[K, V], g0 uint64) {
	if epoch.PoisonCheck && n.Gen() != g0 {
		panic("lbst: node or value cell recycled under a pinned reader (reclaimcheck)")
	}
}

// valueOf loads the value of leaf l under the generation assertion, for
// reads with nothing between taking the leaf and loading from it.
func valueOf[K, V any](l *Node[K, V]) V {
	g0 := genOf(l)
	v := l.val.Load()
	assertGen(l, g0)
	return v
}

// pathBufCap is the capacity of the stack buffer the ordered point query
// reuses for its validation path across retries and descent steps. It
// comfortably covers the height of a balanced tree with millions of keys; a
// deeper walk (possible only in the unbalanced EBST) falls back to append's
// heap growth instead of failing. The query allocates the buffer once on its
// own frame, so steady-state queries generate no garbage per retry.
const pathBufCap = 48

// neighbor is the ordered point query inside the caller's pinned region: the
// nearest key on side d of key, above it for d = 0 (Successor) and below it
// for d = 1 (Predecessor). With bounded false, key is ignored and stands for
// the infinity opposite d: the nearest key above minus infinity is Min, the
// nearest below plus infinity is Max. At every node, near names the child
// towards smaller keys for d = 0 and towards larger ones for d = 1, and far
// the other; the two are swapped in registers once the snapshot is taken.
//
// A leaf reached on side d of key is the answer, and nothing is validated: a
// node an LLX search visits was on key's search path at some instant during
// the search, and the leaf ending that path, when on side d of key, is the
// nearest key on that side at that instant. Nothing there needs key to be
// finite - the search path for minus infinity is the leftmost spine, for plus
// infinity the spine that turns left at the sentinels and right everywhere
// else - so Min and Max always return here and validate nothing. Otherwise
// the leaf holds key or lies on the other side of it, and the answer is the
// leaf nearest to key in the far subtree of the last node at which the search
// turned to the near side. The evidence path restarts at every such turn, so
// it runs from that node down to both leaves, and one VLX over it shows the
// two leaves adjacent in the tree at one instant.
//
// A sentinel leaf answers ok == false on either side: the search turns left
// at every sentinel, so it reaches only the leaf of an empty dictionary, and
// the walk only the top sentinel's right child, above every key.
func (t *Tree[K, V]) neighbor(d int, bounded bool, key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[Node[K, V]]
	path := buf[:0]
	// Every retry means an LLX or the VLX lost to a concurrent update on the
	// connecting path; back off (bounded, randomized, growing with the retry
	// count) before re-walking so queries make progress under heavy update
	// load instead of re-validating a path that keeps changing.
retry:
	for attempt := 0; ; attempt++ {
		backoffWait(attempt)
		path = path[:0]
		// adj is the far child in the snapshot of the last node at which the
		// search turned to the near side, and until it has, the entry node,
		// which is nobody's child.
		adj := t.entry
		l := t.entry
		// As in the search loops, one read of a node's flags serves both tests.
		for a := l.rec.Aux(); a&auxLeaf == 0; a = l.rec.Aux() {
			near, far, ev, ok := l.snap()
			if !ok {
				continue retry
			}
			if d != 0 {
				near, far = far, near
			}
			// Smaller keys are to the left, the near side for d = 0. A sentinel's
			// key is plus infinity, so every search goes left there; an infinite
			// key lies opposite d of every other node's, so it goes near.
			toNear := !bounded
			if a&auxInf != 0 {
				toNear = d == 0
			} else if bounded {
				toNear = cmp.Less(key, l.K) == (d == 0)
			}
			if toNear {
				adj = far
				path = append(path[:0], ev)
				l = near
			} else {
				path = append(path, ev)
				l = far
			}
			if l == nil {
				continue retry
			}
		}
		if l.IsSentinel() {
			return k, v, false
		}
		if !bounded || (d == 0 && cmp.Less(key, l.K)) || (d != 0 && cmp.Less(l.K, key)) {
			return l.K, valueOf(l), true
		}
		if adj == t.entry {
			// The search never turned to the near side: every key in the
			// dictionary lies on the other side of key, or is key.
			return k, v, false
		}
		// Walk down to the leaf of adj's subtree nearest to key with LLXs and
		// validate the whole connecting path with a VLX.
		if adj == nil {
			continue retry
		}
		for !adj.IsLeaf() {
			next, right, ev, ok := adj.snap()
			if d != 0 {
				next = right
			}
			if !ok || next == nil {
				continue retry
			}
			path = append(path, ev)
			adj = next
		}
		g0 := genOf(adj)
		if !llxscx.VLXEvidence(path) && !sched.Mutated(sched.SkipNeighborVLX) {
			continue retry
		}
		if adj.IsSentinel() {
			return k, v, false
		}
		k, v = adj.K, adj.val.Load()
		assertGen(adj, g0)
		return k, v, true
	}
}
