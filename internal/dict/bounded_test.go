package dict

import (
	"testing"
	"time"
)

func TestBudgetCheckUnlimited(t *testing.T) {
	var b Budget
	for _, fails := range []int{0, 1, 1000000} {
		if err := b.Check(fails); err != nil {
			t.Fatalf("zero Budget.Check(%d) = %v, want nil", fails, err)
		}
	}
}

func TestBudgetCheckFirstAttemptIsFree(t *testing.T) {
	// fails == 0 must never consult the budget, even an expired one: the
	// uncontended fast path pays nothing and is never spuriously failed.
	b := Budget{Retries: 1, Deadline: time.Now().Add(-time.Hour)}
	if err := b.Check(0); err != nil {
		t.Fatalf("Check(0) = %v, want nil", err)
	}
}

func TestBudgetCheckRetries(t *testing.T) {
	b := Budget{Retries: 3}
	for fails := 1; fails < 3; fails++ {
		if err := b.Check(fails); err != nil {
			t.Fatalf("Check(%d) = %v under Retries=3, want nil", fails, err)
		}
	}
	if err := b.Check(3); err != ErrRetryBudget {
		t.Fatalf("Check(3) = %v under Retries=3, want ErrRetryBudget", err)
	}
	if err := b.Check(10); err != ErrRetryBudget {
		t.Fatalf("Check(10) = %v under Retries=3, want ErrRetryBudget", err)
	}
}

func TestBudgetCheckDeadline(t *testing.T) {
	past := Budget{Deadline: time.Now().Add(-time.Second)}
	if err := past.Check(1); err != ErrDeadline {
		t.Fatalf("Check(1) past deadline = %v, want ErrDeadline", err)
	}
	future := Budget{Deadline: time.Now().Add(time.Hour)}
	if err := future.Check(1); err != nil {
		t.Fatalf("Check(1) before deadline = %v, want nil", err)
	}
	// Retries exhaustion is reported ahead of the deadline when both apply.
	both := Budget{Retries: 2, Deadline: time.Now().Add(-time.Second)}
	if err := both.Check(5); err != ErrRetryBudget {
		t.Fatalf("Check(5) with both exhausted = %v, want ErrRetryBudget", err)
	}
}
