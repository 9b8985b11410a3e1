package lbst

import (
	"repro/internal/epoch"
	"repro/internal/llxscx"
)

// This file implements the ordered queries of Section 5.5 of the paper -
// Successor and Predecessor - and the scans, once for every tree built on the
// engine, whatever its key and value types.
//
// Both queries perform an ordinary BST search using LLX to read child
// pointers; if the leaf reached already answers the query it is returned
// directly (it was linearized while on the search path), otherwise the
// neighbouring leaf is located and a VLX over the connecting path validates
// that the two leaves were adjacent in the tree at a single point in time.
// Min and Max walk to the outermost leaf with LLXs and validate the whole
// spine with one VLX, so no "smallest possible key" sentinel value is ever
// needed - which is what lets the queries work for arbitrary key types.
// RangeScan and Ascend extend the same validation from a path to a subtree:
// see scan.

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

// pathBufCap is the capacity of the stack buffer each ordered query reuses
// for its validation path across retries and descent steps. It comfortably
// covers the height of a balanced tree with millions of keys; a deeper walk
// (possible only in the unbalanced EBST) falls back to append's heap growth
// instead of failing. Each query function allocates the buffer once on its
// own frame, so steady-state queries generate no garbage per retry.
const pathBufCap = 48

// successor is Successor inside the caller's pinned region.
func (t *Tree[K, V]) successor(key K) (k K, v V, ok bool) {
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
		// lastLeft is the last node at which the search turned left, and succ
		// the right child in its snapshot.
		var lastLeft, succ *Node[K, V]

		l := t.entry
		for !l.IsLeaf() {
			left, right, ev, ok := l.snap()
			if !ok {
				continue retry
			}
			if t.keyLess(key, l) {
				lastLeft, succ = l, right
				path = path[:0]
				path = append(path, ev)
				l = left
			} else {
				path = append(path, ev)
				l = right
			}
			if l == nil {
				continue retry
			}
		}
		// The search for key always turns left at the sentinels, so lastLeft
		// exists; if it is the entry node itself the dictionary is empty.
		if lastLeft == nil || lastLeft == t.entry {
			return k, v, false
		}
		if t.keyLess(key, l) {
			// The leaf reached holds a key strictly greater than key, so it
			// is the successor (linearized while it was on the search path).
			if l.IsSentinel() {
				return k, v, false
			}
			return l.K, valueOf(l), true
		}
		// Otherwise the successor is the leftmost leaf of lastLeft's right
		// subtree. Walk down to it with LLXs and validate the whole
		// connecting path with a VLX.
		if succ == nil {
			continue retry
		}
		for !succ.IsLeaf() {
			left, _, ev, ok := succ.snap()
			if !ok || left == nil {
				continue retry
			}
			path = append(path, ev)
			succ = left
		}
		g0 := genOf(succ)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if succ.IsSentinel() {
			return k, v, false
		}
		k, v = succ.K, succ.val.Load()
		assertGen(succ, g0)
		return k, v, true
	}
}

// predecessor is Predecessor inside the caller's pinned region.
func (t *Tree[K, V]) predecessor(key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		backoffWait(attempt)
		path = path[:0]
		// lastRight is the last node at which the search turned right, and
		// pred the left child in its snapshot.
		var lastRight, pred *Node[K, V]

		l := t.entry
		for !l.IsLeaf() {
			left, right, ev, ok := l.snap()
			if !ok {
				continue retry
			}
			if t.keyLess(key, l) {
				path = append(path, ev)
				l = left
			} else {
				lastRight, pred = l, left
				path = path[:0]
				path = append(path, ev)
				l = right
			}
			if l == nil {
				continue retry
			}
		}
		if !l.IsSentinel() && t.less(l.K, key) {
			// The leaf reached holds a key strictly smaller than key, so it
			// is the predecessor.
			return l.K, valueOf(l), true
		}
		if lastRight == nil {
			// The search never turned right: every key in the dictionary is
			// greater than or equal to key.
			return k, v, false
		}
		// The predecessor is the rightmost leaf of lastRight's left subtree.
		if pred == nil {
			continue retry
		}
		for !pred.IsLeaf() {
			_, right, ev, ok := pred.snap()
			if !ok || right == nil {
				continue retry
			}
			path = append(path, ev)
			pred = right
		}
		g0 := genOf(pred)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if pred.IsSentinel() {
			return k, v, false
		}
		k, v = pred.K, pred.val.Load()
		assertGen(pred, g0)
		return k, v, true
	}
}

// chunkLeaves is the most leaves one validated chunk of a scan collects, and
// chunkEvCap the evidence buffer that goes with it: a chunk LLXs the internal
// nodes between its leaves (fewer than chunkLeaves) plus the two boundary
// paths down to its first and last leaf. A deeper walk (the unbalanced EBST)
// grows the evidence on the heap like the point queries' paths do.
const (
	chunkLeaves = 64
	chunkEvCap  = chunkLeaves + 2*pathBufCap + 16
)

// scan is the traversal behind RangeScan and Ascend. Each chunk is one
// in-order depth-first walk from the entry node that LLXs every internal
// node whose subtree can intersect the remaining range, follows the child
// pointers of those snapshots only, and stops after limit in-range leaves.
// One VLX over everything the walk LLX'd then shows that all those nodes
// were unchanged at a single instant after the last LLX: the entry node is
// always in the tree, and a node that is in the tree with unchanged child
// pointers has those children in the tree, so at that instant every visited
// node and every collected leaf was in the tree, and the subtrees the walk
// pruned lay outside the range by the search-tree property. The collected
// leaves are thus exactly the first keys of the range at that instant. Only
// then are values loaded and fn called, so a failed LLX or VLX has emitted
// nothing and the chunk simply retries; the next chunk resumes strictly
// above the last emitted key.
//
// A retry halves the leaf limit (down to 1, the footprint of one Successor)
// so that a scan racing heavy updates in a small tree validates less at a
// time, and a success doubles it back. scan also reports how many validated
// walks it is made of (chunks, counting a last one that found nothing left)
// and how many attempts failed (retries).
func (t *Tree[K, V]) scan(useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) (count, chunks, retries int) {
	var (
		evBuf    [chunkEvCap]llxscx.Evidence[Node[K, V]]
		stackBuf [pathBufCap]*Node[K, V]
		leaves   [chunkLeaves]*Node[K, V]
		// gens holds the leaves' generations for the poisoning assertion; it
		// exists (and is zeroed on every call) only under -tags reclaimcheck.
		gens []uint64
	)
	if epoch.PoisonCheck {
		var genBuf [chunkLeaves]uint64
		gens = genBuf[:]
	}
	less := t.less
	loExcl := false // lo itself is in range until a chunk has been emitted
	limit, fails := chunkLeaves, 0
	for {
		backoffWait(fails)
		ev := evBuf[:0]
		stack := append(stackBuf[:0], t.entry)
		n, ok := 0, true
		for len(stack) > 0 && n < limit {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nd.IsLeaf() {
				if nd.IsSentinel() {
					continue
				}
				k := nd.K
				if (useLo && (less(k, lo) || (loExcl && !less(lo, k)))) || (useHi && less(hi, k)) {
					continue
				}
				if epoch.PoisonCheck {
					gens[n] = nd.Gen()
				}
				leaves[n] = nd
				n++
				continue
			}
			left, right, e, snapped := nd.snap()
			if !snapped {
				ok = false
				break
			}
			ev = append(ev, e)
			// Left subtrees hold keys strictly below the routing key, right
			// subtrees the rest; sentinels route every key left. The right
			// child is pushed first so the left subtree is walked first. As in
			// the point queries, a nil child fails the attempt.
			inf := nd.IsSentinel()
			if !inf && (!useHi || !less(hi, nd.K)) {
				if right == nil {
					ok = false
					break
				}
				stack = append(stack, right)
			}
			if inf || !useLo || less(lo, nd.K) {
				if left == nil {
					ok = false
					break
				}
				stack = append(stack, left)
			}
		}
		if !ok || !llxscx.VLXEvidence(ev) {
			retries++
			fails++
			limit = max(1, limit/2)
			continue
		}
		chunks++
		fails = 0
		limit = min(chunkLeaves, 2*limit)
		for i := 0; i < n; i++ {
			l := leaves[i]
			k, v := l.K, l.val.Load()
			if epoch.PoisonCheck {
				assertGen(l, gens[i])
			}
			count++
			if !fn(k, v) {
				return count, chunks, retries
			}
		}
		if len(stack) == 0 {
			return count, chunks, retries
		}
		// The walk stopped at the limit with subtrees pending (n > 0).
		lo, useLo, loExcl = leaves[n-1].K, true, true
	}
}

// min is Min inside the caller's pinned region: it walks to the leftmost leaf
// with LLXs and validates the spine with a VLX, so the result is linearizable.
func (t *Tree[K, V]) min() (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		backoffWait(attempt)
		path = path[:0]
		l := t.entry
		for !l.IsLeaf() {
			left, _, ev, ok := l.snap()
			if !ok || left == nil {
				continue retry
			}
			path = append(path, ev)
			l = left
		}
		g0 := genOf(l)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if l.IsSentinel() {
			// The leftmost leaf is the sentinel leaf: the dictionary is empty.
			return k, v, false
		}
		k, v = l.K, l.val.Load()
		assertGen(l, g0)
		return k, v, true
	}
}

// max is Max inside the caller's pinned region. The rightmost spine of the
// entry structure ends at a sentinel leaf, so max walks to the rightmost leaf
// of the tree proper (the left subtree below the top sentinel), which contains
// no sentinels. Like min it validates the whole spine with a VLX.
func (t *Tree[K, V]) max() (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[Node[K, V]]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		backoffWait(attempt)
		path = path[:0]
		top, _, ev, ok := t.entry.snap()
		if !ok || top == nil {
			continue retry
		}
		path = append(path, ev)
		if top.IsLeaf() {
			// Figure 10(a): the dictionary is empty.
			if !llxscx.VLXEvidence(path) {
				continue retry
			}
			return k, v, false
		}
		l, _, ev, ok := top.snap()
		if !ok || l == nil {
			continue retry
		}
		path = append(path, ev)
		for !l.IsLeaf() {
			_, right, ev, ok := l.snap()
			if !ok || right == nil {
				continue retry
			}
			path = append(path, ev)
			l = right
		}
		g0 := genOf(l)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if l.IsSentinel() {
			continue retry
		}
		k, v = l.K, l.val.Load()
		assertGen(l, g0)
		return k, v, true
	}
}
