package main

import (
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/workload"
)

// store is what a worker calls. Every layer is measured from outside, by
// timing calls into these exported methods.
type store interface {
	dict.IntMap
	dict.IntRanger
	dict.IntSnapshotter
}

// class is the path an operation took, known from its return value. Latency
// is reported per class, not per operation kind: under 50i-50d half of all
// Inserts overwrite and half run an SCX, so a per-kind median would sit on
// the boundary between two modes and flap.
type class uint8

const (
	clsGet      class = iota // Get
	clsUpd                   // Insert of an absent key or Delete of a present one: one SCX plus rebalancing
	clsOvw                   // Insert on a present key: the vcell publish bracket, no SCX
	clsMiss                  // Delete of an absent key; counted in throughput only
	clsScan                  // live RangeScan over scanSpan keys
	clsSnapscan              // Snapshot, RangeScan on the view, Release
	numClasses
)

var classNames = [numClasses]string{"get", "upd", "ovw", "miss", "scan", "snapscan"}

// worker is one closed-loop caller: it draws an operation, performs it, waits
// for the reply, checks it, and draws the next.
type worker struct {
	id   int
	m    store
	st   stream
	mask int64 // latency is sampled when the op number & mask == 0

	// Oracle state, never reset. Values always equal keys, so a reply with
	// value != key is wrong; keySum is this worker's net contribution to the
	// sum of stored keys, checked against the structure after the run.
	keySum    int64
	failed    int64
	attempted int64

	// Scan visitor state; visit is built once so a scan allocates nothing.
	lo, hi, prev int64
	bad          bool
	visit        func(k, v int64) bool
	snapNext     bool

	ops [numClasses]int64 // untraced operations by class
	lat [numClasses]hist  // sampled untraced latencies by class

	tr *tracer // non-nil while this worker records spans
}

func newWorker(id int, m store, st stream, mask int64) *worker {
	w := &worker{id: id, m: m, st: st, mask: mask}
	w.visit = func(k, v int64) bool {
		if k < w.lo || k > w.hi || k <= w.prev || v != k {
			w.bad = true
		}
		w.prev = k
		return true
	}
	return w
}

func (w *worker) resetCounts() {
	w.ops = [numClasses]int64{}
	for i := range w.lat {
		w.lat[i] = hist{}
	}
}

// do performs one operation, checks its reply and returns its class.
func (w *worker) do(op workload.Op, key int64) class {
	switch op {
	case workload.OpInsert:
		old, existed := w.m.Insert(key, key)
		if !existed {
			w.keySum += key
			return clsUpd
		}
		if old != key {
			w.failed++
		}
		return clsOvw
	case workload.OpDelete:
		old, existed := w.m.Delete(key)
		if !existed {
			return clsMiss
		}
		if old != key {
			w.failed++
		}
		w.keySum -= key
		return clsUpd
	case workload.OpScan:
		w.lo, w.hi, w.prev, w.bad = key, key+scanSpan-1, key-1, false
		c := clsScan
		if w.snapNext = !w.snapNext; w.snapNext {
			c = clsSnapscan
			v := w.m.Snapshot()
			if w.tr != nil {
				w.tr.t1 = w.tr.now()
			}
			v.RangeScan(w.lo, w.hi, w.visit)
			if w.tr != nil {
				w.tr.t2 = w.tr.now()
			}
			v.Release()
		} else {
			w.m.RangeScan(w.lo, w.hi, w.visit)
		}
		if w.bad {
			w.failed++
		}
		return c
	default:
		v, ok := w.m.Get(key)
		if ok && v != key {
			w.failed++
		}
		return clsGet
	}
}

// run is the timed loop: it runs until d has passed on this worker's own
// clock or maxOps operations are done. The clock is read only around sampled
// operations, so the deadline costs nothing extra.
func (w *worker) run(d time.Duration, maxOps int64) workerWindow {
	start := time.Now()
	var n int64
	for n < maxOps {
		n++
		op, key := w.st.next()
		if n&w.mask != 0 {
			w.ops[w.do(op, key)]++
			continue
		}
		t0 := time.Now()
		c := w.do(op, key)
		t1 := time.Now()
		w.ops[c]++
		w.lat[c].add(int64(t1.Sub(t0)))
		if t1.Sub(start) >= d {
			break
		}
	}
	elapsed := time.Since(start)
	w.attempted += n
	return workerWindow{ops: n, elapsed: int64(elapsed)}
}

// runTraced is the same loop with every operation wrapped in a span.
func (w *worker) runTraced(d time.Duration, maxOps int64) workerWindow {
	tr := w.tr
	begin := tr.now()
	end := begin
	var n int64
	for n < maxOps {
		n++
		op, key := w.st.next()
		t0 := tr.now()
		c := w.do(op, key)
		end = tr.now()
		tr.record(c, t0, end)
		if end-begin >= int64(d) {
			break
		}
	}
	w.attempted += n
	return workerWindow{ops: n, elapsed: end - begin}
}

// together runs fn(0) .. fn(n-1) on n goroutines released at the same moment
// and returns when all have.
func together(n int, fn func(g int)) {
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			fn(g)
		}()
	}
	close(begin)
	wg.Wait()
}
