package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced operation. Times are nanoseconds since the run began.
// A snapscan span has three children, one per public call, whose boundaries
// are t1 (Snapshot returned) and t2 (RangeScan returned).
type span struct {
	seq                int64
	start, t1, t2, end int64
	cls                class
	window             uint16
}

var snapChildren = [3]string{"capture", "walk", "release"}

// tracer records one worker's spans. Spans aggregate on the fly into a count
// and a busy time per class; the last len(ring) stay in memory and are
// written out only after the run.
type tracer struct {
	runStart time.Time
	window   uint16
	ring     []span
	n        int64
	count    [numClasses]int64
	busy     [numClasses]int64
	child    [3]hist
	// outside counts snapscan spans whose children do not lie inside them in
	// order; the monotonic clock makes that impossible, so it is an oracle
	// check on the tracer itself.
	outside int64
	t1, t2  int64 // set by worker.do around the calls of a snapscan
}

func newTracer(runStart time.Time, ringLen int) *tracer {
	return &tracer{runStart: runStart, ring: make([]span, ringLen)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.runStart)) }

func (t *tracer) record(c class, start, end int64) {
	s := &t.ring[t.n&int64(len(t.ring)-1)]
	*s = span{seq: t.n, start: start, end: end, cls: c, window: t.window}
	t.n++
	t.count[c]++
	t.busy[c] += end - start
	if c == clsSnapscan {
		s.t1, s.t2 = t.t1, t.t2
		if !(start <= s.t1 && s.t1 <= s.t2 && s.t2 <= end) {
			t.outside++
		}
		t.child[0].add(s.t1 - start)
		t.child[1].add(s.t2 - s.t1)
		t.child[2].add(end - s.t2)
	}
}

// retained returns the spans still in the ring, oldest first.
func (t *tracer) retained() []span {
	n := int64(len(t.ring))
	if t.n <= n {
		return t.ring[:t.n]
	}
	out := make([]span, 0, n)
	head := t.n & (n - 1)
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// windowSpan is a traced window, the parent of its operations' spans.
type windowSpan struct{ start, end int64 }

// writeSpans writes the run span, the window spans and every retained
// operation span (with a snapscan's three children) as JSON lines. The run
// contract confines a benchmark's writes to its checkout, so the file goes
// under .bench_build in the working directory, not os.TempDir.
func writeSpans(workloadName string, runEnd int64, windows []windowSpan, tracers []*tracer) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workloadName+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	line := func(id, parent, name string, worker int, start, end int64) {
		fmt.Fprintf(w, `{"id":%q,"parent":%q,"name":%q,"worker":%d,"start_ns":%d,"end_ns":%d}`+"\n", id, parent, name, worker, start, end)
	}
	line("run", "", "run", -1, 0, runEnd)
	for i, ws := range windows {
		line(fmt.Sprintf("w%d", i), "run", "window", -1, ws.start, ws.end)
	}
	for wi, t := range tracers {
		for _, s := range t.retained() {
			id := fmt.Sprintf("%d-%d", wi, s.seq)
			line(id, fmt.Sprintf("w%d", s.window), classNames[s.cls], wi, s.start, s.end)
			if s.cls == clsSnapscan {
				bounds := [4]int64{s.start, s.t1, s.t2, s.end}
				for k, name := range snapChildren {
					line(id+"-"+name, id, name, wi, bounds[k], bounds[k+1])
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
