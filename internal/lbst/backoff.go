package lbst

import (
	"math/rand/v2"
	"runtime"
)

// maxBackoffSpins bounds the exponential growth of backoffWait. The cap
// keeps the worst-case wait small (a few hundred scheduler yields) so a
// backed-off operation still reacts quickly once contention drains; the
// randomization below breaks the convoys that a deterministic wait would
// re-form.
const maxBackoffSpins = 1 << 8

// backoffWait is the bounded randomized exponential backoff for the
// template updates' optimistic retry loops (a failed LLX or SCX). It waits
// for a randomized number of scheduler yields bounded by
// min(2^(failures-1), maxBackoffSpins), where failures is the operation's
// count of consecutive failed attempts; failures <= 0 waits nothing.
//
// A failed attempt means another operation succeeded in the same
// neighbourhood, so the system as a whole made progress (the non-blocking
// guarantee is untouched); backing off before re-searching trades a little
// latency on the contended path for far fewer wasted re-searches and failed
// CASes when many updaters hammer a small key range — the regime where the
// paper's 50i-50d cells scale worst.
//
// The failure count is deliberately a plain int owned by the caller rather
// than a struct with a Wait method: an addressable backoff local inside a
// hot retry loop measurably degrades the surrounding codegen even on the
// uncontended path where Wait is never called.
func backoffWait(failures int) {
	if failures <= 0 {
		return
	}
	spins := rand.IntN(backoffLimit(failures)) + 1
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
}

// backoffLimit is the bound on backoffWait's yields after failures >= 1
// consecutive failed attempts: min(2^(failures-1), maxBackoffSpins).
func backoffLimit(failures int) int {
	if shift := failures - 1; shift < 8 {
		return 1 << shift
	}
	return maxBackoffSpins
}
