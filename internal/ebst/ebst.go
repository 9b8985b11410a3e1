// Package ebst implements a non-blocking, leaf-oriented, unbalanced binary
// search tree as the trivial instantiation of the shared engine in
// internal/lbst.
//
// This is the style of data structure for which the tree update template was
// originally motivated (Ellen, Fatourou, Ruppert and van Breugel's
// non-blocking BST). The engine owns the search loop, the insertion and
// deletion template updates and the ordered queries; all this package adds
// is the no-op balancing policy - no decoration, no violations, no
// rebalancing steps - which demonstrates how little code a new
// template-based data structure needs. The benchmark harness uses it as the
// "unbalanced non-blocking" reference point.
//
// Because there is no rebalancing, the height is linear in the number of
// keys under a sorted insertion order, as for the paper's unbalanced BST,
// and nothing corrects it: balance is a policy's job, and this policy has
// no steps.
//
// The tree is generic over the key and value types: NewOrdered builds a tree
// over any cmp.Ordered key type, and New is the int64 instantiation the
// repository benchmark uses.
package ebst

import (
	"cmp"

	"repro/internal/epoch"
	"repro/internal/lbst"
)

// policy is the no-op balancing policy: an unbalanced tree never considers
// itself in violation.
type policy[K, V any] struct{}

func (policy[K, V]) SentinelDeco() int64                                 { return 0 }
func (policy[K, V]) InsertDecos(_, _ *lbst.Node[K, V]) (_, _, _ int64)   { return 0, 0, 0 }
func (policy[K, V]) PromoteDeco(_, _, _ *lbst.Node[K, V]) int64          { return 0 }
func (policy[K, V]) CreatesViolation(_ K, _, _, _ *lbst.Node[K, V]) bool { return false }
func (policy[K, V]) Violation(_, _ *lbst.Node[K, V]) bool                { return false }
func (policy[K, V]) Rebalance(_ *epoch.Guard, _, _, _, _ *lbst.Node[K, V]) bool {
	return false
}

// Tree is a non-blocking unbalanced leaf-oriented BST. It is safe for
// concurrent use. Use New or NewOrdered to create one. All
// dictionary and ordered-query operations (Get, Insert, LoadOrStore, Delete,
// Successor, Predecessor, RangeScan, Ascend, Min, Max, Snapshot) and the
// quiescent helpers (Size, Height, Keys, CheckStructure) are provided by the
// embedded engine.
type Tree[K cmp.Ordered, V any] struct {
	*lbst.Tree[K, V]
}

// NewOrdered returns an empty tree over a naturally ordered key type.
func NewOrdered[K cmp.Ordered, V any]() *Tree[K, V] {
	return &Tree[K, V]{lbst.NewOrdered[K, V](policy[K, V]{})}
}

// New returns an empty tree with int64 keys and values, the instantiation
// the repository benchmark uses.
func New() *Tree[int64, int64] {
	return NewOrdered[int64, int64]()
}
