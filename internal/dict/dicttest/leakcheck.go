package dicttest

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/epoch"
)

// checkGoroutineLeaks snapshots the live goroutine count when a stress
// harness starts and, at test cleanup, verifies the count settles back to
// it. The epoch layer is drained first so nothing is waiting on a grace
// period, and the comparison retries with a settle delay because goroutines
// that have returned can linger briefly in the scheduler's accounting. A
// persistent excess means a harness (or a chaos run) leaked a worker — the
// failure includes a full goroutine dump to name the culprit.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		epoch.Drain()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d live after the suite, %d at its start; dump:\n%s",
					runtime.NumGoroutine(), base, buf[:n])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// hangGuard arms a wall-clock deadline for one stress suite. A wedged
// suite (a worker parked forever, a retry loop that stopped making
// progress) would otherwise hang the whole `go test` invocation with no
// diagnostics; the guard instead crashes the process with a full goroutine
// dump so the wedge site is visible. The returned func disarms it.
func hangGuard(t *testing.T, d time.Duration) func() {
	name := t.Name()
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<22)
		n := runtime.Stack(buf, true)
		panic(name + " made no progress for " + d.String() + "; goroutine dump:\n" + string(buf[:n]))
	})
	return func() { timer.Stop() }
}
