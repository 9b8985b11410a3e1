package dicttest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dict"
)

// stuckMap is a map-backed dictionary whose second Insert does not return
// until release is closed, standing in for an operation spinning in a
// malformed structure.
type stuckMap struct {
	m       map[int64]int64
	inserts int
	release chan struct{}
}

func (m *stuckMap) Height() int { return 7 }

func (m *stuckMap) Get(k int64) (int64, bool) {
	v, ok := m.m[k]
	return v, ok
}

func (m *stuckMap) Insert(k, v int64) (int64, bool) {
	if m.inserts++; m.inserts == 2 {
		<-m.release
	}
	old, existed := m.m[k]
	m.m[k] = v
	return old, existed
}

func (m *stuckMap) Delete(k int64) (int64, bool) {
	old, existed := m.m[k]
	delete(m.m, k)
	return old, existed
}

// TestFuzzInputDeadlineNamesTheStuckOperation: an input whose operation 1
// never returns is reported, once the per-input deadline passes, with the
// target's name, that operation's index and the structure's height; an input
// that finishes in time is not reported at all.
func TestFuzzInputDeadlineNamesTheStuckOperation(t *testing.T) {
	m := &stuckMap{m: map[int64]int64{}, release: make(chan struct{})}
	tgt := TargetOf[int64, int64]{
		Name: "Stuck",
		New:  func() dict.Map[int64, int64] { return m },
	}
	id := func(u uint64) int64 { return int64(u) }
	reports := make(chan string, 1) // one expiry at most; it must not block the timer
	done := make(chan struct{})
	go func() {
		defer close(done)
		fuzzOps(t, tgt, id, id, []byte{0, 1, 1, 0, 2, 2, 0, 3, 3}, 20*time.Millisecond, func(report string) {
			reports <- report
		})
	}()
	report := <-reports
	for _, want := range []string{"Stuck", "operation 1 ", "tree height 7"} {
		if !strings.Contains(report, want) {
			t.Errorf("the deadline report %q does not contain %q", report, want)
		}
	}
	close(m.release)
	<-done

	clear(m.m) // a new input; its inserts are past the stuck one, so it runs to its end
	fuzzOps(t, tgt, id, id, []byte{0, 1, 1, 0, 2, 2}, time.Hour, func(report string) {
		t.Errorf("an input that finished was reported: %s", report)
	})
}
