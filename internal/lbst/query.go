package lbst

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/llxscx"
)

// This file implements the ordered queries of Section 5.5 of the paper -
// Successor and Predecessor - generically, so that every leaf-oriented BST
// in the repository (the engine's own trees and the chromatic tree, whose
// update path stays hand-unrolled) shares one implementation, whatever its
// key and value types.
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

// View is the read-only shape a leaf-oriented BST node must expose to share
// the engine's traversal helpers. The node type remains free to lay out its
// fields however it likes (the chromatic tree keeps its weight field; the
// engine's Node carries the policy decoration).
type View[N, K, V any] interface {
	llxscx.DataRecord[N]
	// Key returns the routing key (internal nodes) or dictionary key
	// (leaves); ignored for sentinels.
	Key() K
	// Value returns the associated value (leaves only).
	Value() V
	// IsLeaf reports whether the node is a leaf.
	IsLeaf() bool
	// IsSentinel reports whether the node's key reads as +infinity.
	IsSentinel() bool
}

func viewLess[P View[N, K, V], N, K, V any](less func(K, K) bool, key K, n P) bool {
	return n.IsSentinel() || less(key, n.Key())
}

// genOf reads the reclamation generation of n (and, through the node types'
// Gen, of a leaf's value cell) for the poisoning assertions. Compiled out
// unless -tags reclaimcheck; the type assertion tolerates node types without
// a generation counter.
func genOf[P View[N, K, V], N, K, V any](n P) uint64 {
	if !epoch.PoisonCheck {
		return 0
	}
	if gn, ok := any(n).(interface{ Gen() uint64 }); ok {
		return gn.Gen()
	}
	return 0
}

// assertGen panics if the generation of a node or of its value cell changed
// while the (pinned) query held it: the reclamation layer recycled memory a
// reader could still reach, which the grace-period argument in DESIGN.md
// says must never happen.
func assertGen[P View[N, K, V], N, K, V any](n P, g0 uint64) {
	if epoch.PoisonCheck && genOf[P, N, K, V](n) != g0 {
		panic("lbst: node or value cell recycled under a pinned reader (reclaimcheck)")
	}
}

// valueOf loads the value of leaf l under the generation assertion, for
// reads with nothing between taking the leaf and loading from it.
func valueOf[P View[N, K, V], N, K, V any](l P) V {
	g0 := genOf[P, N, K, V](l)
	v := l.Value()
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

// Successor returns the smallest key strictly greater than key together
// with its value, or ok=false if no such key exists. entry must be the
// sentinel entry point of the tree and less its key comparator.
func Successor[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[N]
	path := buf[:0]
	// Every retry means an LLX or the VLX lost to a concurrent update on the
	// connecting path; back off (bounded, randomized, growing with the retry
	// count) before re-walking so queries make progress under heavy update
	// load instead of re-validating a path that keeps changing.
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastLeft llxscx.Linked[N]
		haveLastLeft := false

		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if viewLess(less, key, l) {
				lkLastLeft = lk
				haveLastLeft = true
				path = path[:0]
				path = append(path, lk.Evidence())
				l = lk.Child(0)
			} else {
				path = append(path, lk.Evidence())
				l = lk.Child(1)
			}
			if l == nilNode {
				continue retry
			}
		}
		// The search for key always turns left at the sentinels, so lastLeft
		// exists; if it is the entry node itself the dictionary is empty.
		if !haveLastLeft || lkLastLeft.Node() == (*N)(entry) {
			return k, v, false
		}
		if viewLess(less, key, l) {
			// The leaf reached holds a key strictly greater than key, so it
			// is the successor (linearized while it was on the search path).
			if l.IsSentinel() {
				return k, v, false
			}
			return l.Key(), valueOf[P, N, K, V](l), true
		}
		// Otherwise the successor is the leftmost leaf of lastLeft's right
		// subtree. Walk down to it with LLXs and validate the whole
		// connecting path with a VLX.
		succ := P(lkLastLeft.Child(1))
		if succ == nilNode {
			continue retry
		}
		for !succ.IsLeaf() {
			lk, st := llxscx.LLX(succ)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk.Evidence())
			succ = lk.Child(0)
			if succ == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](succ)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if succ.IsSentinel() {
			return k, v, false
		}
		k, v = succ.Key(), succ.Value()
		assertGen(succ, g0)
		return k, v, true
	}
}

// Predecessor returns the largest key strictly smaller than key together
// with its value, or ok=false if no such key exists. entry must be the
// sentinel entry point of the tree and less its key comparator.
func Predecessor[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, key K) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var lkLastRight llxscx.Linked[N]
		haveLastRight := false

		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			if viewLess(less, key, l) {
				path = append(path, lk.Evidence())
				l = lk.Child(0)
			} else {
				lkLastRight = lk
				haveLastRight = true
				path = path[:0]
				path = append(path, lk.Evidence())
				l = lk.Child(1)
			}
			if l == nilNode {
				continue retry
			}
		}
		if !l.IsSentinel() && less(l.Key(), key) {
			// The leaf reached holds a key strictly smaller than key, so it
			// is the predecessor.
			return l.Key(), valueOf[P, N, K, V](l), true
		}
		if !haveLastRight {
			// The search never turned right: every key in the dictionary is
			// greater than or equal to key.
			return k, v, false
		}
		// The predecessor is the rightmost leaf of lastRight's left subtree.
		pred := P(lkLastRight.Child(0))
		if pred == nilNode {
			continue retry
		}
		for !pred.IsLeaf() {
			lk, st := llxscx.LLX(pred)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk.Evidence())
			pred = lk.Child(1)
			if pred == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](pred)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if pred.IsSentinel() {
			return k, v, false
		}
		k, v = pred.Key(), pred.Value()
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

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. The scan proceeds in chunks of up to 64 keys: the keys of one chunk
// are exactly the leading keys of the remaining range at a single point in
// time (see scan), and successive chunks are taken at successive times. A
// scan that spans several chunks is therefore not atomic as a whole, and a
// value may be newer than its chunk's instant (values are loaded after the
// validation, as the point queries do).
func RangeScan[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, lo, hi K, fn func(k K, v V) bool) int {
	n, _, _ := scan(entry, less, true, lo, true, hi, fn)
	return n
}

// Ascend calls fn for every key in the dictionary in ascending order and
// returns the number of keys visited. If fn returns false the scan stops
// early. It is RangeScan without bounds: chunk-atomic, not atomic as a whole.
func Ascend[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, fn func(k K, v V) bool) int {
	var none K
	n, _, _ := scan(entry, less, false, none, false, none, fn)
	return n
}

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
func scan[P View[N, K, V], N, K, V any](entry P, less func(K, K) bool, useLo bool, lo K, useHi bool, hi K, fn func(k K, v V) bool) (count, chunks, retries int) {
	var (
		evBuf    [chunkEvCap]llxscx.Evidence[N]
		stackBuf [pathBufCap]P
		leaves   [chunkLeaves]P
		gens     [chunkLeaves]uint64
		nilNode  P
	)
	loExcl := false // lo itself is in range until a chunk has been emitted
	limit, fails := chunkLeaves, 0
	for {
		core.BackoffWait(fails)
		ev := evBuf[:0]
		stack := append(stackBuf[:0], entry)
		n, ok := 0, true
		for len(stack) > 0 && n < limit {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nd == nilNode { // as in the point queries, a nil child fails the attempt
				ok = false
				break
			}
			if nd.IsLeaf() {
				if nd.IsSentinel() {
					continue
				}
				k := nd.Key()
				if (useLo && (less(k, lo) || (loExcl && !less(lo, k)))) || (useHi && less(hi, k)) {
					continue
				}
				gens[n] = genOf[P, N, K, V](nd)
				leaves[n] = nd
				n++
				continue
			}
			lk, st := llxscx.LLX(nd)
			if st != llxscx.Snapshot {
				ok = false
				break
			}
			ev = append(ev, lk.Evidence())
			// Left subtrees hold keys strictly below the routing key, right
			// subtrees the rest; sentinels route every key left. The right
			// child is pushed first so the left subtree is walked first.
			inf := nd.IsSentinel()
			if !inf && (!useHi || !less(hi, nd.Key())) {
				stack = append(stack, P(lk.Child(1)))
			}
			if inf || !useLo || less(lo, nd.Key()) {
				stack = append(stack, P(lk.Child(0)))
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
			k, v := l.Key(), l.Value()
			assertGen(l, gens[i])
			count++
			if !fn(k, v) {
				return count, chunks, retries
			}
		}
		if len(stack) == 0 {
			return count, chunks, retries
		}
		// The walk stopped at the limit with subtrees pending (n > 0).
		lo, useLo, loExcl = leaves[n-1].Key(), true, true
	}
}

// Min returns the smallest key in the dictionary and its value, or ok=false
// if the dictionary is empty. It walks to the leftmost leaf with LLXs and
// validates the spine with a VLX, so the result is linearizable. Because K
// and V only appear in the constraint and results, call sites must
// instantiate the type parameters explicitly.
func Min[P View[N, K, V], N, K, V any](entry P) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var nilNode P
		l := entry
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk.Evidence())
			l = lk.Child(0)
			if l == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](l)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if l.IsSentinel() {
			// The leftmost leaf is the sentinel leaf: the dictionary is empty.
			return k, v, false
		}
		k, v = l.Key(), l.Value()
		assertGen(l, g0)
		return k, v, true
	}
}

// Max returns the largest key in the dictionary and its value, or ok=false
// if the dictionary is empty. The rightmost spine of the entry structure
// ends at a sentinel leaf, so Max walks to the rightmost leaf of the tree
// proper (the left subtree below the top sentinel), which contains no
// sentinels. Like Min it validates the whole spine with a VLX and requires
// explicit instantiation.
func Max[P View[N, K, V], N, K, V any](entry P) (k K, v V, ok bool) {
	var buf [pathBufCap]llxscx.Evidence[N]
	path := buf[:0]
retry:
	for attempt := 0; ; attempt++ {
		core.BackoffWait(attempt)
		path = path[:0]
		var nilNode P
		lkE, st := llxscx.LLX(entry)
		if st != llxscx.Snapshot {
			continue retry
		}
		path = append(path, lkE.Evidence())
		top := P(lkE.Child(0))
		if top == nilNode {
			continue retry
		}
		if top.IsLeaf() {
			// Figure 10(a): the dictionary is empty.
			if !llxscx.VLXEvidence(path) {
				continue retry
			}
			return k, v, false
		}
		lkTop, st := llxscx.LLX(top)
		if st != llxscx.Snapshot {
			continue retry
		}
		path = append(path, lkTop.Evidence())
		l := P(lkTop.Child(0))
		if l == nilNode {
			continue retry
		}
		for !l.IsLeaf() {
			lk, st := llxscx.LLX(l)
			if st != llxscx.Snapshot {
				continue retry
			}
			path = append(path, lk.Evidence())
			l = lk.Child(1)
			if l == nilNode {
				continue retry
			}
		}
		g0 := genOf[P, N, K, V](l)
		if !llxscx.VLXEvidence(path) {
			continue retry
		}
		if l.IsSentinel() {
			continue retry
		}
		k, v = l.Key(), l.Value()
		assertGen(l, g0)
		return k, v, true
	}
}
