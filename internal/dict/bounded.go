package dict

import (
	"errors"
	"time"
)

// This file defines the bounded-operation surface: per-operation retry
// budgets and deadlines for the lock-free structures' retry loops. The
// LLX/SCX trees are lock-free, not wait-free — an individual Insert or
// Delete can in principle retry forever while the rest of the system makes
// progress — and a service built on them (the ROADMAP's kvserver
// direction) needs per-request bounds rather than unbounded patience. A
// Budget is checked only on the contention path (after a failed attempt),
// so the uncontended fast path pays nothing.

// ErrRetryBudget is returned when an operation exhausts Budget.Retries
// failed attempts. The operation had no effect.
var ErrRetryBudget = errors.New("dict: operation retry budget exhausted")

// ErrDeadline is returned when an operation observes Budget.Deadline in the
// past between attempts. The operation had no effect.
var ErrDeadline = errors.New("dict: operation deadline exceeded")

// Budget bounds one operation. The zero Budget is unlimited.
type Budget struct {
	// Retries caps the number of *failed* attempts (an operation that
	// succeeds on its first try never consults the budget). 0 means
	// unlimited.
	Retries int
	// Deadline, when non-zero, fails the operation at its next retry
	// boundary after the instant passes. It is only inspected between
	// attempts — a single attempt is never interrupted — so overrun is
	// bounded by one attempt's duration.
	Deadline time.Time
}

// Check reports whether the budget still permits another attempt after
// fails failed ones: nil to continue, ErrRetryBudget or ErrDeadline to give
// up. Structures call it at the top of each retry iteration, skipping
// fails == 0.
func (b Budget) Check(fails int) error {
	if fails == 0 {
		return nil
	}
	if b.Retries > 0 && fails >= b.Retries {
		return ErrRetryBudget
	}
	if !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
		return ErrDeadline
	}
	return nil
}

// BoundedMap is implemented by structures whose update retry loops accept a
// Budget (the lbst-engine trees and the chromatic tree). A failed bounded
// operation returns the zero displaced value, existed == false, and the
// budget error; it is guaranteed to have had no effect on the map.
type BoundedMap[K, V any] interface {
	Map[K, V]
	InsertBounded(key K, value V, b Budget) (old V, existed bool, err error)
	DeleteBounded(key K, b Budget) (old V, existed bool, err error)
}
