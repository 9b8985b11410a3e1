package seqrbt

import (
	"cmp"
	"sync"
)

// Global wraps a sequential red-black tree with a single mutex, reproducing
// the "RBGlobal" baseline of the paper's evaluation (java.util.TreeMap with
// every operation protected by a global lock). It is safe for concurrent use
// but serializes every operation, including queries. Like the tree it wraps
// it is generic: use NewGlobal or NewGlobalOrdered.
type Global[K cmp.Ordered, V any] struct {
	mu   sync.Mutex
	tree *Tree[K, V]
}

// NewGlobalOrdered returns an empty globally locked red-black tree over a
// naturally ordered key type.
func NewGlobalOrdered[K cmp.Ordered, V any]() *Global[K, V] {
	return &Global[K, V]{tree: NewOrdered[K, V]()}
}

// NewGlobal returns an empty globally locked red-black tree with int64 keys
// and values, the instantiation the benchmark registry uses.
func NewGlobal() *Global[int64, int64] { return NewGlobalOrdered[int64, int64]() }

// IntGlobal is the historical int64 instantiation used by the benchmark
// registry.
type IntGlobal = Global[int64, int64]

// Name identifies the data structure in benchmark reports.
func (g *Global[K, V]) Name() string { return "RBGlobal" }

// Get returns the value associated with key, or the zero value and false if
// absent.
func (g *Global[K, V]) Get(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Get(key)
}

// Insert associates value with key, returning the previous value and true if
// key was present.
func (g *Global[K, V]) Insert(key K, value V) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Insert(key, value)
}

// Delete removes key, returning its value and true if it was present.
func (g *Global[K, V]) Delete(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Delete(key)
}

// Successor returns the smallest key strictly greater than key.
func (g *Global[K, V]) Successor(key K) (K, V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Successor(key)
}

// Predecessor returns the largest key strictly smaller than key.
func (g *Global[K, V]) Predecessor(key K) (K, V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Predecessor(key)
}

// Size returns the number of keys stored.
func (g *Global[K, V]) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.Size()
}

// CheckInvariants verifies the wrapped tree's red-black properties under the
// global lock.
func (g *Global[K, V]) CheckInvariants() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tree.CheckInvariants()
}
