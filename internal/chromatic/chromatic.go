// Package chromatic implements the non-blocking chromatic tree of Brown,
// Ellen and Ruppert, "A General Technique for Non-blocking Trees"
// (PPoPP 2014), Section 5 and Appendix C.
//
// A chromatic tree is a leaf-oriented binary search tree that relaxes the
// balance conditions of a red-black tree: node colours are replaced by
// non-negative integer weights (0 = red, 1 = black, >1 = overweight) and the
// red-black properties may be violated transiently. Dictionary keys are
// stored only in leaves; internal nodes carry routing keys. Insertions and
// deletions are decoupled from rebalancing: each is a small localized update
// that follows the tree update template (LLX on a handful of nodes followed
// by one SCX), and a separate set of 22 localized rebalancing steps (Boyar,
// Fagerberg and Larsen: eleven, and their mirror images) restores balance. Every operation is non-blocking
// and linearizable, and the height of the tree is O(c + log n) where c is
// the number of insertions and deletions in progress.
//
// The paper's point is that such a tree is the tree update template plus a
// table of localized steps, and that is all this package holds. The tree is
// built on the shared leaf-oriented BST engine (internal/lbst), which owns
// the node, its free lists and reclamation, the search, the insertion and deletion
// updates, the in-place overwrite, the ordered queries, the scans and the
// snapshots. This package supplies the balancing policy: a node's decoration
// is its weight, the policy's few methods below say which weights an
// insertion and a deletion assign and what a violation is, and rebalance.go
// holds the steps and the decision procedure that picks one. Tree adds the
// weight-aware checkers (CheckInvariants, CheckRedBlack, CountViolations).
//
// Tree is generic over the key and value types: NewOrdered builds a tree over
// any cmp.Ordered key type, ordered by cmp.Less, and New is its int64
// instantiation. The Chromatic6 variant of the paper — which postpones
// rebalancing until more than six violations accumulate on a search path —
// is NewOrdered's with WithAllowedViolations(6).
package chromatic

import (
	"cmp"

	"repro/internal/epoch"
	"repro/internal/lbst"
)

// Stats counts the successful rebalancing steps of each kind performed on a
// tree, and the attempts. It is intended for tests and experiments; counts
// are monotone and only approximately ordered with respect to concurrent
// operations. The counters are sharded by epoch slot (epoch.Counters), so a
// step counts on a line private to the operation running it.
type Stats struct {
	set epoch.Counters

	BLK, RB1, RB2, PUSH, W7           epoch.Counter
	W1, W2, W3, W4, W5, W6            epoch.Counter
	MirrorRB1, MirrorRB2, MirrorPUSH  epoch.Counter
	MirrorW1, MirrorW2, MirrorW3      epoch.Counter
	MirrorW4, MirrorW5, MirrorW6      epoch.Counter
	MirrorW7                          epoch.Counter
	RebalanceAttempts, RebalanceFails epoch.Counter
}

func newStats() *Stats {
	s := new(Stats)
	s.set.Bind(&s.BLK, &s.RB1, &s.RB2, &s.PUSH, &s.W7,
		&s.W1, &s.W2, &s.W3, &s.W4, &s.W5, &s.W6,
		&s.MirrorRB1, &s.MirrorRB2, &s.MirrorPUSH,
		&s.MirrorW1, &s.MirrorW2, &s.MirrorW3,
		&s.MirrorW4, &s.MirrorW5, &s.MirrorW6,
		&s.MirrorW7,
		&s.RebalanceAttempts, &s.RebalanceFails)
	return s
}

// RebalanceTotal returns the total number of successful rebalancing steps.
func (s *Stats) RebalanceTotal() int64 {
	return s.BLK.Load() + s.RB1.Load() + s.RB2.Load() + s.PUSH.Load() + s.W7.Load() +
		s.W1.Load() + s.W2.Load() + s.W3.Load() + s.W4.Load() + s.W5.Load() + s.W6.Load() +
		s.MirrorRB1.Load() + s.MirrorRB2.Load() + s.MirrorPUSH.Load() + s.MirrorW7.Load() +
		s.MirrorW1.Load() + s.MirrorW2.Load() + s.MirrorW3.Load() + s.MirrorW4.Load() +
		s.MirrorW5.Load() + s.MirrorW6.Load()
}

// Tree is a non-blocking chromatic tree implementing an ordered dictionary.
// It is safe for concurrent use by any number of goroutines. The zero value
// is not usable; call New or NewOrdered. All dictionary and ordered-query
// operations come from the embedded engine; this type adds the weight-aware
// inspection helpers.
type Tree[K cmp.Ordered, V any] struct {
	*lbst.Tree[K, V]
	pol *policy[K, V]
}

// config collects the option-controlled settings, so one Option type serves
// every key/value instantiation of Tree.
type config struct {
	allowed int
}

// Option configures a Tree at construction time.
type Option func(*config)

// WithAllowedViolations sets the number of violations tolerated on a search
// path before rebalancing is triggered (Section 5.6 of the paper). k = 0 is
// the plain chromatic tree; k = 6 is the paper's Chromatic6 variant.
func WithAllowedViolations(k int) Option {
	if k < 0 {
		k = 0
	}
	return func(c *config) { c.allowed = k }
}

// NewOrdered returns an empty chromatic tree over a naturally ordered key
// type.
func NewOrdered[K cmp.Ordered, V any](opts ...Option) *Tree[K, V] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pol := &policy[K, V]{allowed: cfg.allowed, stats: newStats()}
	pol.eng = lbst.NewOrdered[K, V](pol)
	return &Tree[K, V]{Tree: pol.eng, pol: pol}
}

// New returns an empty chromatic tree with int64 keys and values, the
// instantiation the repository benchmark uses.
func New() *Tree[int64, int64] { return NewOrdered[int64, int64]() }

// Stats returns the tree's rebalancing counters.
func (t *Tree[K, V]) Stats() *Stats { return t.pol.stats }

// policy is the chromatic balancing policy for the lbst engine: a node's
// decoration is its weight. eng is the engine tree it balances, wired after
// construction; the rebalancing steps draw their fresh nodes from its free
// lists.
type policy[K cmp.Ordered, V any] struct {
	// allowed is the number of violations tolerated on a search path before
	// an insertion or deletion that created a violation triggers cleanup. 0
	// reproduces the paper's Chromatic, 6 reproduces Chromatic6.
	allowed int
	eng     *lbst.Tree[K, V]
	stats   *Stats
}

// SentinelDeco implements lbst.Policy: sentinels have weight one.
func (pol *policy[K, V]) SentinelDeco() int64 { return 1 }

// InsertDecos implements lbst.Policy (the Insert1 transformation of Figure
// 11): the new leaf and the old leaf come out with weight one, and the
// internal node above them absorbs the rest of the old leaf's weight, so
// weighted path lengths are unchanged. A node placed directly below a
// sentinel (in particular the chromatic root) always gets weight one, which
// keeps every violation strictly below the root. An old leaf that is
// overweight therefore changes weight, which is what makes the engine replace
// it by a copy.
func (pol *policy[K, V]) InsertDecos(p, l *lbst.Node[K, V]) (internal, leaf, oldLeaf int64) {
	internal = 1
	if !l.IsSentinel() && !p.IsSentinel() {
		internal = l.Deco() - 1
	}
	return internal, 1, 1
}

// PromoteDeco implements lbst.Policy (the Delete transformation of Figure
// 11): the promoted sibling absorbs its removed parent's weight so that
// weighted path lengths are preserved, except that a node placed directly
// below a sentinel always gets weight one.
func (pol *policy[K, V]) PromoteDeco(gp, p, s *lbst.Node[K, V]) int64 {
	if p.IsSentinel() || gp.IsSentinel() {
		return 1
	}
	return p.Deco() + s.Deco()
}

// CreatesViolation implements lbst.Policy. An insertion (oldChild is the leaf
// it replaced) creates a red-red violation when the new internal node and its
// parent are both red; a deletion creates an overweight violation when the
// promoted sibling ends up with weight above one. The plain chromatic tree
// cleans up after each; a tree that tolerates violations counts the ones now
// on the key's search path - the update has just walked it - and cleans up
// only once there are more than allowed.
func (pol *policy[K, V]) CreatesViolation(key K, parent, oldChild, newChild *lbst.Node[K, V]) bool {
	created := newChild.Deco() > 1
	if oldChild.IsLeaf() {
		created = newChild.Deco() == 0 && parent.Deco() == 0
	}
	return created && (pol.allowed == 0 || pol.eng.PathViolations(key) > pol.allowed)
}

// Violation implements lbst.Policy: n is overweight, or n and its parent are
// both red.
func (pol *policy[K, V]) Violation(parent, n *lbst.Node[K, V]) bool {
	return n.Deco() > 1 || (n.Deco() == 0 && parent.Deco() == 0)
}
