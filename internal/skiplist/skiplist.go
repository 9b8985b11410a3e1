// Package skiplist implements a lock-free (non-blocking) skip list, the
// analogue of java.util.concurrent.ConcurrentSkipListMap that the paper uses
// as its "SkipList" baseline. The algorithm is the classic lock-free skip
// list of Herlihy and Shavit (itself derived from Fraser's and Lea's
// designs): every next pointer is an atomically replaceable (successor,
// marked) pair, deletions first mark a node's next pointers and then rely on
// concurrent traversals to physically unlink marked nodes.
//
// The list is generic over the key and value types and implements
// dict.OrderedMap[K, V]: NewOrdered builds a list over any cmp.Ordered key
// type, ordered by cmp.Less.
package skiplist

import (
	"cmp"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/vcell"
)

// maxLevel is the maximum number of levels. 2^24 expected keys is far more
// than the benchmarks use; the paper's largest key range is 10^6.
const maxLevel = 24

// succRef is an immutable (successor, marked) pair; next pointers swing
// between freshly allocated succRef values, which emulates the
// AtomicMarkableReference used by the Java original and avoids ABA problems
// thanks to garbage collection.
type succRef[K, V any] struct {
	succ   *node[K, V]
	marked bool
}

type node[K, V any] struct {
	k K
	// v is the node's value cell, embedded so that overwriting a present
	// key's value stores no per-store box: the cell's representation is
	// selected once per list at construction (word storage for word-sized
	// value types, a boxed pointer otherwise).
	v        vcell.Cell[V]
	next     []atomic.Pointer[succRef[K, V]]
	level    int
	sentinel int8 // -1 head, +1 tail, 0 ordinary
}

func newNode[K, V any](k K, v V, unboxed bool, level int, sentinel int8) *node[K, V] {
	n := &node[K, V]{k: k, level: level, sentinel: sentinel}
	n.v.Init(unboxed, v)
	n.next = make([]atomic.Pointer[succRef[K, V]], level+1)
	return n
}

func (n *node[K, V]) value() V { return n.v.Load() }

// tryPublish overwrites n's value inside a publish bracket, returning the
// displaced value. It fails - publishing NOTHING - if n is logically
// deleted (bottom-level successor marked), so a failed overwrite is always
// effect-free and the caller can fall back to a fresh insert without risking
// a double effect. A deleter that wins the bottom-level mark drains the
// bracket before loading the displaced value, which totally orders every
// successful publish before that load; see the overwrite protocol in
// internal/lbst for the full argument (the skip list's instance is simpler:
// cells are never aliased between nodes).
func (n *node[K, V]) tryPublish(value V) (V, bool) {
	n.v.BeginPublish()
	sched.Point(sched.PointVCellRecheck)
	if ref := n.next[0].Load(); ref != nil && ref.marked {
		n.v.EndPublish()
		var zero V
		return zero, false
	}
	old := n.v.Swap(value)
	n.v.EndPublish()
	return old, true
}

// List is a lock-free skip list implementing an ordered dictionary. It is
// safe for concurrent use. Use New or NewOrdered to create one.
type List[K cmp.Ordered, V any] struct {
	head *node[K, V]
	tail *node[K, V]

	// unboxed is the value-cell representation every node of this list uses,
	// computed once at construction (see vcell.Unboxed): word storage for
	// word-sized value types, so an overwrite of a present key allocates
	// nothing, with the boxed atomic.Pointer fallback otherwise.
	unboxed bool
}

// NewOrdered returns an empty skip list over a naturally ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *List[K, V] {
	var zk K
	var zv V
	unboxed := vcell.Unboxed[V]()
	head := newNode[K, V](zk, zv, unboxed, maxLevel, -1)
	tail := newNode[K, V](zk, zv, unboxed, maxLevel, 1)
	for i := 0; i <= maxLevel; i++ {
		head.next[i].Store(&succRef[K, V]{succ: tail})
	}
	return &List[K, V]{head: head, tail: tail, unboxed: unboxed}
}

// randomLevel chooses a tower height with geometric distribution (p = 1/2).
func randomLevel() int {
	lvl := 0
	for rand.Uint64()&1 == 1 && lvl < maxLevel-1 {
		lvl++
	}
	return lvl
}

// nodeLess reports whether n's key is strictly smaller than key, treating
// the head sentinel as -infinity and the tail sentinel as +infinity.
func (l *List[K, V]) nodeLess(n *node[K, V], key K) bool {
	switch n.sentinel {
	case -1:
		return true
	case 1:
		return false
	default:
		return cmp.Less(n.k, key)
	}
}

// isKey reports whether n holds exactly key.
func (l *List[K, V]) isKey(n *node[K, V], key K) bool {
	return n.sentinel == 0 && cmp.Compare(n.k, key) == 0
}

// nodeLessEq reports whether n's key is smaller than or equal to key,
// treating the sentinels as ±infinity.
func (l *List[K, V]) nodeLessEq(n *node[K, V], key K) bool {
	switch n.sentinel {
	case -1:
		return true
	case 1:
		return false
	default:
		return !cmp.Less(key, n.k)
	}
}

// find locates the position of key at every level, snipping out any marked
// (logically deleted) nodes it encounters along the way. It fills preds and
// succs and reports whether an unmarked node with the key was found at the
// bottom level.
func (l *List[K, V]) find(key K, preds, succs *[maxLevel + 1]*node[K, V]) bool {
retry:
	for {
		pred := l.head
		for level := maxLevel; level >= 0; level-- {
			curr := pred.next[level].Load().succ
			for {
				ref := curr.next[level].Load()
				// Physically remove marked nodes encountered at this level.
				for ref != nil && ref.marked {
					expected := pred.next[level].Load()
					if expected.marked || expected.succ != curr {
						// pred itself changed (or was deleted); start over.
						continue retry
					}
					if !pred.next[level].CompareAndSwap(expected, &succRef[K, V]{succ: ref.succ}) {
						continue retry
					}
					curr = ref.succ
					ref = curr.next[level].Load()
				}
				if l.nodeLess(curr, key) {
					pred = curr
					curr = ref.succ
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr
		}
		return l.isKey(succs[0], key)
	}
}

// Get returns the value associated with key, or the zero value and false if
// absent. It is wait-free: it never helps, retries or modifies the
// structure.
func (l *List[K, V]) Get(key K) (V, bool) {
	if n := l.findPresent(key); n != nil {
		return n.value(), true
	}
	var zero V
	return zero, false
}

// findPresent is the wait-free read-only walk: it returns the unmarked node
// holding key, or nil if key is absent or logically deleted. It keeps no
// preds/succs, so nothing it touches escapes to the heap; Get and Insert's
// overwrite fast path are built on it.
func (l *List[K, V]) findPresent(key K) *node[K, V] {
	pred := l.head
	var curr *node[K, V]
	for level := maxLevel; level >= 0; level-- {
		curr = pred.next[level].Load().succ
		for l.nodeLess(curr, key) {
			pred = curr
			curr = curr.next[level].Load().succ
		}
	}
	if l.isKey(curr, key) {
		if ref := curr.next[0].Load(); ref != nil && ref.marked {
			return nil
		}
		return curr
	}
	return nil
}

// Insert associates value with key. It returns the previous value and true
// if key was already present (in which case only the value is updated).
func (l *List[K, V]) Insert(key K, value V) (V, bool) {
	// Overwrite fast path: a read-only walk (no preds/succs bookkeeping, so
	// the walk keeps everything on the stack) locates a present node and
	// publishes the value into its embedded cell - zero allocations for
	// word-sized value types. The publish runs inside a bracket that checks
	// the node's deletion mark first, mirroring the template trees'
	// overwrite protocol: if the node was logically deleted, nothing is
	// published and the operation falls through to the full find loop below.
	// An insert of an absent key pays this extra descent before the full
	// find; the trade measured as a net win on update-heavy mixes, where
	// roughly half the inserts hit present keys and skip find's
	// heap-escaping preds/succs staging entirely.
	if n := l.findPresent(key); n != nil {
		if old, ok := n.tryPublish(value); ok {
			return old, true
		}
	}
	var preds, succs [maxLevel + 1]*node[K, V]
	topLevel := randomLevel()
	var zero V
	for {
		if l.find(key, &preds, &succs) {
			found := succs[0]
			// If the node is not logically deleted, overwrite its value: one
			// atomic publish into the embedded cell (no box for word-sized
			// value types), under the same bracket as the fast path above.
			if ref := found.next[0].Load(); ref != nil && !ref.marked {
				if old, ok := found.tryPublish(value); ok {
					return old, true
				}
			}
			// The node is being removed; retry until it is unlinked.
			continue
		}
		fresh := newNode(key, value, l.unboxed, topLevel, 0)
		for level := 0; level <= topLevel; level++ {
			fresh.next[level].Store(&succRef[K, V]{succ: succs[level]})
		}
		// Link at the bottom level first; this is the linearization point.
		if !casLink(preds[0], 0, succs[0], fresh) {
			continue
		}
		// Link the remaining levels, re-finding on interference.
		for level := 1; level <= topLevel; level++ {
			for {
				// The new node must point at the successor it is linked in
				// front of, so that the link preserves the list order. A
				// re-find at a lower level replaced succs at every level, so
				// this is checked before each attempt, not only after a
				// failed one; only a deletion's mark can make the CAS fail.
				ref := fresh.next[level].Load()
				if ref.marked {
					return zero, false
				}
				if ref.succ != succs[level] && !fresh.next[level].CompareAndSwap(ref, &succRef[K, V]{succ: succs[level]}) {
					return zero, false
				}
				if casLink(preds[level], level, succs[level], fresh) {
					break
				}
				l.find(key, &preds, &succs)
				if succs[0] != fresh {
					// The new node was deleted before we finished building
					// its tower; stop linking upper levels.
					return zero, false
				}
			}
		}
		return zero, false
	}
}

// casLink links fresh between pred and succ at the given level, provided
// pred still points, unmarked, at succ.
func casLink[K, V any](pred *node[K, V], level int, succ, fresh *node[K, V]) bool {
	expected := pred.next[level].Load()
	if expected == nil || expected.marked || expected.succ != succ {
		return false
	}
	return pred.next[level].CompareAndSwap(expected, &succRef[K, V]{succ: fresh})
}

// Delete removes key, returning its value and true if it was present. The
// node is first marked level by level (logical deletion) and then unlinked
// by a final find.
func (l *List[K, V]) Delete(key K) (V, bool) {
	var preds, succs [maxLevel + 1]*node[K, V]
	var zero V
	if !l.find(key, &preds, &succs) {
		return zero, false
	}
	victim := succs[0]
	// Mark the upper levels.
	for level := victim.level; level >= 1; level-- {
		for {
			ref := victim.next[level].Load()
			if ref.marked {
				break
			}
			if victim.next[level].CompareAndSwap(ref, &succRef[K, V]{succ: ref.succ, marked: true}) {
				break
			}
		}
	}
	// Mark the bottom level: whoever succeeds owns the deletion.
	for {
		ref := victim.next[0].Load()
		if ref.marked {
			return zero, false // someone else deleted it first
		}
		if victim.next[0].CompareAndSwap(ref, &succRef[K, V]{succ: ref.succ, marked: true}) {
			// The winning mark is the node's finalization: drain in-flight
			// publish brackets so every overwrite that will ever be visible
			// is ordered before the displaced-value load below.
			victim.v.DrainPublishers()
			old := victim.value()
			l.find(key, &preds, &succs) // physically unlink
			return old, true
		}
	}
}

// Successor returns the smallest key strictly greater than key.
func (l *List[K, V]) Successor(key K) (K, V, bool) {
	pred := l.head
	var curr *node[K, V]
	for level := maxLevel; level >= 0; level-- {
		curr = pred.next[level].Load().succ
		for l.nodeLessEq(curr, key) {
			pred = curr
			curr = curr.next[level].Load().succ
		}
	}
	for curr.sentinel != 1 {
		if ref := curr.next[0].Load(); ref == nil || !ref.marked {
			return curr.k, curr.value(), true
		}
		curr = curr.next[0].Load().succ
	}
	var zk K
	var zv V
	return zk, zv, false
}

// Predecessor returns the largest key strictly smaller than key.
func (l *List[K, V]) Predecessor(key K) (K, V, bool) {
	pred := l.head
	for level := maxLevel; level >= 0; level-- {
		curr := pred.next[level].Load().succ
		for l.nodeLess(curr, key) {
			pred = curr
			curr = curr.next[level].Load().succ
		}
	}
	if pred.sentinel == -1 {
		var zk K
		var zv V
		return zk, zv, false
	}
	return pred.k, pred.value(), true
}

// RangeScan calls fn for every key in [lo, hi] in ascending order and
// returns the number of keys visited; if fn returns false the scan stops
// early. It descends the towers to the first key >= lo and then walks the
// bottom level, skipping logically deleted nodes, so each step is one
// pointer chase rather than a fresh search from the head. The scan is not
// atomic as a whole: each visited key was present at some point during the
// scan.
func (l *List[K, V]) RangeScan(lo, hi K, fn func(k K, v V) bool) int {
	pred := l.head
	var curr *node[K, V]
	for level := maxLevel; level >= 0; level-- {
		curr = pred.next[level].Load().succ
		for l.nodeLess(curr, lo) {
			pred = curr
			curr = curr.next[level].Load().succ
		}
	}
	count := 0
	for curr.sentinel != 1 && !cmp.Less(hi, curr.k) {
		ref := curr.next[0].Load()
		if ref == nil {
			break
		}
		if !ref.marked {
			count++
			if !fn(curr.k, curr.value()) {
				return count
			}
		}
		curr = ref.succ
	}
	return count
}

// Size returns the number of (unmarked) keys stored. It runs in linear time
// and is intended for tests and prefilling at quiescence.
func (l *List[K, V]) Size() int {
	count := 0
	for n := l.head.next[0].Load().succ; n.sentinel != 1; n = n.next[0].Load().succ {
		if ref := n.next[0].Load(); ref == nil || !ref.marked {
			count++
		}
	}
	return count
}

// Keys returns all keys in ascending order. Quiescence only.
func (l *List[K, V]) Keys() []K {
	var keys []K
	for n := l.head.next[0].Load().succ; n.sentinel != 1; n = n.next[0].Load().succ {
		if ref := n.next[0].Load(); ref == nil || !ref.marked {
			keys = append(keys, n.k)
		}
	}
	return keys
}

// CheckInvariants verifies, at quiescence, that the bottom level is strictly
// ordered and that every level is a sublist of the level below it.
func (l *List[K, V]) CheckInvariants() error {
	// Bottom level strictly ordered.
	prev := l.head
	for n := l.head.next[0].Load().succ; n.sentinel != 1; n = n.next[0].Load().succ {
		if prev.sentinel == 0 && !cmp.Less(prev.k, n.k) {
			return errOrder
		}
		prev = n
	}
	// Every node reachable at level i must be reachable at level i-1.
	for level := 1; level <= maxLevel; level++ {
		lower := map[*node[K, V]]bool{}
		for n := l.head.next[level-1].Load().succ; n.sentinel != 1; n = n.next[level-1].Load().succ {
			lower[n] = true
		}
		for n := l.head.next[level].Load().succ; n.sentinel != 1; n = n.next[level].Load().succ {
			if ref := n.next[0].Load(); ref != nil && ref.marked {
				continue // logically deleted; may be partially unlinked
			}
			if !lower[n] {
				return errTower
			}
		}
	}
	return nil
}

type listError string

func (e listError) Error() string { return string(e) }

const (
	errOrder = listError("skiplist: bottom level out of order")
	errTower = listError("skiplist: tower node missing from lower level")
)
