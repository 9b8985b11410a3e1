package lbst

import "testing"

func TestBackoffWaitBounds(t *testing.T) {
	// Non-positive failure counts must wait nothing (and not panic on the
	// rand.IntN argument); large counts must stay at the cap. The wait
	// itself is scheduler yields, so the only observable contract here is
	// "returns promptly for any input".
	backoffWait(0)
	backoffWait(-3)
	for fails := 1; fails < 70; fails++ {
		backoffWait(fails)
	}
}

func TestBackoffLimitComputation(t *testing.T) {
	// The spin bound doubles per failure and caps at maxBackoffSpins.
	for failures, want := range map[int]int{1: 1, 2: 2, 3: 4, 8: 128, 9: 256, 10: 256, 50: 256} {
		if got := backoffLimit(failures); got != want {
			t.Errorf("limit for %d failures = %d, want %d", failures, got, want)
		}
	}
}
