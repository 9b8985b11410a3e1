// Package stmskip implements a skip list on top of the software
// transactional memory of internal/stm, reproducing the "SkipListSTM"
// baseline of the paper's evaluation: every operation is a single coarse
// transaction over the nodes it traverses.
//
// The list is generic over the key and value types and implements
// dict.OrderedMap[K, V]: NewOrdered builds a list over any cmp.Ordered key
// type, ordered by cmp.Less.
package stmskip

import (
	"cmp"
	"math/rand/v2"

	"repro/internal/stm"
)

const maxLevel = 24

type node[K, V any] struct {
	k     K
	v     *stm.Var[V]
	next  []*stm.Var[*node[K, V]]
	level int
	// sentinel: -1 head, +1 tail, 0 ordinary
	sentinel int8
}

func newNode[K, V any](k K, v V, level int, sentinel int8) *node[K, V] {
	n := &node[K, V]{k: k, v: stm.NewVar(v), level: level, sentinel: sentinel}
	n.next = make([]*stm.Var[*node[K, V]], level+1)
	for i := range n.next {
		n.next[i] = stm.NewVar[*node[K, V]](nil)
	}
	return n
}

// List is a transactional skip list implementing an ordered dictionary. It
// is safe for concurrent use. Use New or NewOrdered to create one.
type List[K cmp.Ordered, V any] struct {
	head *node[K, V]
	size *stm.Var[int64]
}

// NewOrdered returns an empty transactional skip list over a naturally
// ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *List[K, V] {
	var zk K
	var zv V
	head := newNode(zk, zv, maxLevel, -1)
	tail := newNode(zk, zv, maxLevel, 1)
	for i := 0; i <= maxLevel; i++ {
		head.next[i] = stm.NewVar(tail)
	}
	return &List[K, V]{head: head, size: stm.NewVar[int64](0)}
}

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

// findPreds fills preds with the rightmost node strictly smaller than key at
// every level and returns the node following preds[0], all read within tx.
func (l *List[K, V]) findPreds(tx *stm.Txn, key K, preds *[maxLevel + 1]*node[K, V]) *node[K, V] {
	pred := l.head
	for level := maxLevel; level >= 0; level-- {
		curr := stm.Read(tx, pred.next[level])
		for l.nodeLess(curr, key) {
			pred = curr
			curr = stm.Read(tx, pred.next[level])
		}
		preds[level] = pred
	}
	return stm.Read(tx, preds[0].next[0])
}

// Get returns the value associated with key, or the zero value and false if
// absent.
func (l *List[K, V]) Get(key K) (V, bool) {
	type result struct {
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var preds [maxLevel + 1]*node[K, V]
		curr := l.findPreds(tx, key, &preds)
		if l.isKey(curr, key) {
			return result{stm.Read(tx, curr.v), true}
		}
		return result{}
	})
	return r.v, r.ok
}

// Insert associates value with key, returning the previous value and true if
// key was present.
func (l *List[K, V]) Insert(key K, value V) (V, bool) {
	type result struct {
		old     V
		existed bool
	}
	topLevel := randomLevel()
	r := stm.Atomically(func(tx *stm.Txn) result {
		var preds [maxLevel + 1]*node[K, V]
		curr := l.findPreds(tx, key, &preds)
		if l.isKey(curr, key) {
			old := stm.Read(tx, curr.v)
			stm.Write(tx, curr.v, value)
			return result{old, true}
		}
		fresh := newNode(key, value, topLevel, 0)
		for level := 0; level <= topLevel; level++ {
			stm.Write(tx, fresh.next[level], stm.Read(tx, preds[level].next[level]))
			stm.Write(tx, preds[level].next[level], fresh)
		}
		stm.Write(tx, l.size, stm.Read(tx, l.size)+1)
		return result{}
	})
	return r.old, r.existed
}

// Delete removes key, returning its value and true if it was present.
func (l *List[K, V]) Delete(key K) (V, bool) {
	type result struct {
		old     V
		existed bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var preds [maxLevel + 1]*node[K, V]
		curr := l.findPreds(tx, key, &preds)
		if !l.isKey(curr, key) {
			return result{}
		}
		for level := 0; level <= curr.level; level++ {
			if stm.Read(tx, preds[level].next[level]) == curr {
				stm.Write(tx, preds[level].next[level], stm.Read(tx, curr.next[level]))
			}
		}
		stm.Write(tx, l.size, stm.Read(tx, l.size)-1)
		return result{stm.Read(tx, curr.v), true}
	})
	return r.old, r.existed
}

// Successor returns the smallest key strictly greater than key.
func (l *List[K, V]) Successor(key K) (K, V, bool) {
	type result struct {
		k  K
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var preds [maxLevel + 1]*node[K, V]
		curr := l.findPreds(tx, key, &preds)
		if l.isKey(curr, key) {
			curr = stm.Read(tx, curr.next[0])
		}
		if curr.sentinel == 1 {
			return result{}
		}
		return result{curr.k, stm.Read(tx, curr.v), true}
	})
	return r.k, r.v, r.ok
}

// Predecessor returns the largest key strictly smaller than key.
func (l *List[K, V]) Predecessor(key K) (K, V, bool) {
	type result struct {
		k  K
		v  V
		ok bool
	}
	r := stm.Atomically(func(tx *stm.Txn) result {
		var preds [maxLevel + 1]*node[K, V]
		l.findPreds(tx, key, &preds)
		pred := preds[0]
		if pred.sentinel == -1 {
			return result{}
		}
		return result{pred.k, stm.Read(tx, pred.v), true}
	})
	return r.k, r.v, r.ok
}

// Size returns the number of keys stored.
func (l *List[K, V]) Size() int {
	return int(stm.Atomically(func(tx *stm.Txn) int64 { return stm.Read(tx, l.size) }))
}

// Keys returns all keys in ascending order, read in one transaction.
func (l *List[K, V]) Keys() []K {
	return stm.Atomically(func(tx *stm.Txn) []K {
		var keys []K
		for n := stm.Read(tx, l.head.next[0]); n.sentinel != 1; n = stm.Read(tx, n.next[0]) {
			keys = append(keys, n.k)
		}
		return keys
	})
}

// CheckInvariants verifies, in one transaction, that every level is
// strictly ordered and that every level is a sublist of the level below it
// (every node linked at level i is also reachable at level i-1).
func (l *List[K, V]) CheckInvariants() error {
	bad := stm.Atomically(func(tx *stm.Txn) error {
		for level := 0; level <= maxLevel; level++ {
			var prev *node[K, V]
			for n := stm.Read(tx, l.head.next[level]); n.sentinel != 1; n = stm.Read(tx, n.next[level]) {
				if prev != nil && !cmp.Less(prev.k, n.k) {
					return errOrder
				}
				prev = n
			}
		}
		for level := 1; level <= maxLevel; level++ {
			lower := map[*node[K, V]]bool{}
			for n := stm.Read(tx, l.head.next[level-1]); n.sentinel != 1; n = stm.Read(tx, n.next[level-1]) {
				lower[n] = true
			}
			for n := stm.Read(tx, l.head.next[level]); n.sentinel != 1; n = stm.Read(tx, n.next[level]) {
				if !lower[n] {
					return errTower
				}
			}
		}
		return nil
	})
	return bad
}

type listError string

func (e listError) Error() string { return string(e) }

const (
	errOrder = listError("stmskip: level out of order")
	errTower = listError("stmskip: tower node missing from lower level")
)
