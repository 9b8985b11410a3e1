// Package linearize records concurrent dictionary histories and checks them
// for linearizability, in the style of Wing & Gong's algorithm with Lowe's
// refinements (the approach popularized by the porcupine checker).
//
// A test wraps the dictionary under test in a Recorder, hands one Proc to
// each goroutine, and runs its workload through the Proc's Get/Insert/
// Delete/Scan methods. Each call is logged with invocation and response
// stamps drawn from a shared atomic counter, giving a total order on the
// interval endpoints. After the goroutines join, Check searches for a
// linearization: a sequential ordering of all operations that (a) respects
// real time — an operation that returned before another was invoked comes
// first — and (b) produces exactly the outputs that were observed, according
// to the sequential dictionary specification.
//
// # The sequential model and per-key decomposition
//
// The reference model is the sequential map semantics implemented by
// internal/seqrbt (Get/Insert/Delete returning the displaced value and a
// presence flag); the package's tests cross-validate the checker's
// transition function against an actual seqrbt tree on random sequential
// histories. Because every recorded operation touches exactly one key, the
// map decomposes into independent registers, and linearizability is
// compositional (Herlihy & Wing's locality theorem): a history is
// linearizable against the map specification if and only if each per-key
// subhistory is linearizable against the single-key specification. Check
// exploits this by partitioning the history by key and searching each
// partition separately, which turns an exponential search over the whole
// history into many small ones.
//
// Range scans are recorded per visited key as ScanStep operations: each
// asserts its pair was current at some instant inside the step's interval.
// For a native RangeScan the interval runs from the scan's invocation to
// the step's emission, which is sound both for snapshot-based scans (every
// pair was current at the capture instant, just after the invocation) and
// for per-step-linearizable walks. Successor/Predecessor walks used as a
// scan fallback use the enclosing read as the interval. Each step also
// carries its scan's range and invocation stamp, and Check requires the
// steps of every scan to lie in its range and to ascend strictly. Whole-scan
// atomicity is deliberately not asserted.
//
// On violation, Check shrinks the offending per-key subhistory to a small
// core that still has no linearization and formats a human-readable
// counterexample: the operations involved, the longest linearizable prefix,
// and, for each remaining operation, why it cannot be linearized next.
package linearize

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
)

// Kind is the operation type of a recorded Op.
type Kind uint8

const (
	// KindGet is a point lookup: Out/OutOK are the returned value and
	// presence flag.
	KindGet Kind = iota
	// KindInsert is an upsert: Val is the argument, Out/OutOK the displaced
	// value and presence flag.
	KindInsert
	// KindDelete is a removal: Out/OutOK are the removed value and presence
	// flag.
	KindDelete
	// KindScanStep is one visited pair of a range scan (or an ordered-walk
	// step): Out is the value observed for Key, and the step asserts the
	// pair was current at some instant inside [Call, Ret].
	KindScanStep
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindGet:
		return "Get"
	case KindInsert:
		return "Insert"
	case KindDelete:
		return "Delete"
	case KindScanStep:
		return "ScanStep"
	default:
		return "?"
	}
}

// Op is one recorded operation. Call and Ret are stamps from the recorder's
// shared counter: Call was taken before the operation was invoked and Ret
// after it returned, so Ret(a) < Call(b) proves a preceded b in real time.
type Op[K cmp.Ordered, V comparable] struct {
	Proc  int  // recording goroutine
	Kind  Kind // operation type
	OutOK bool // returned presence flag
	Key   K
	Val   V // Insert argument (zero otherwise)
	Out   V // returned value
	// A KindScanStep's scan: the range [Lo, Hi] it was asked for and the
	// stamp taken when it was invoked. The steps of one scan share Proc and
	// Scan, and each must lie in the range and above the step emitted
	// before it (the one with the next smaller Ret).
	Lo, Hi K
	Scan   int64
	Call   int64
	Ret    int64
}

// History is a complete recorded run: the operations of all procs.
type History[K cmp.Ordered, V comparable] struct {
	Ops []Op[K, V]
}

// Recorder wraps a dictionary and hands out per-goroutine Procs that log
// every operation. The recorder itself is safe for concurrent use; each
// Proc must be used by a single goroutine.
type Recorder[K cmp.Ordered, V comparable] struct {
	m     dict.Map[K, V]
	clock atomic.Int64

	mu    sync.Mutex
	procs []*Proc[K, V]
}

// NewRecorder returns a recorder wrapping m.
func NewRecorder[K cmp.Ordered, V comparable](m dict.Map[K, V]) *Recorder[K, V] {
	return &Recorder[K, V]{m: m}
}

// Proc allocates a new recording proxy for one goroutine.
func (r *Recorder[K, V]) Proc() *Proc[K, V] {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &Proc[K, V]{r: r, id: len(r.procs)}
	r.procs = append(r.procs, p)
	return p
}

// History merges every proc's log into one history, in invocation order.
// It must only be called after all recording goroutines have finished.
func (r *Recorder[K, V]) History() History[K, V] {
	r.mu.Lock()
	defer r.mu.Unlock()
	logs, n := make([][]Op[K, V], 0, len(r.procs)), 0
	for _, p := range r.procs {
		if len(p.ops) > 0 {
			logs, n = append(logs, p.ops), n+len(p.ops)
		}
	}
	h := History[K, V]{Ops: make([]Op[K, V], 0, n)}
	for len(logs) > 0 {
		first := 0
		for i := range logs {
			if logs[i][0].Call < logs[first][0].Call {
				first = i
			}
		}
		h.Ops = append(h.Ops, logs[first][0])
		if logs[first] = logs[first][1:]; len(logs[first]) == 0 {
			logs = slices.Delete(logs, first, first+1)
		}
	}
	return h
}

// Proc is a single-goroutine recording proxy for the wrapped dictionary.
type Proc[K cmp.Ordered, V comparable] struct {
	r   *Recorder[K, V]
	id  int
	ops []Op[K, V]
}

func (p *Proc[K, V]) record(op Op[K, V]) { p.ops = append(p.ops, op) }

// Get performs and records a lookup.
func (p *Proc[K, V]) Get(key K) (V, bool) {
	call := p.r.clock.Add(1)
	v, ok := p.r.m.Get(key)
	ret := p.r.clock.Add(1)
	p.record(Op[K, V]{Proc: p.id, Kind: KindGet, Key: key, Out: v, OutOK: ok, Call: call, Ret: ret})
	return v, ok
}

// Insert performs and records an upsert.
func (p *Proc[K, V]) Insert(key K, value V) (V, bool) {
	call := p.r.clock.Add(1)
	old, existed := p.r.m.Insert(key, value)
	ret := p.r.clock.Add(1)
	p.record(Op[K, V]{Proc: p.id, Kind: KindInsert, Key: key, Val: value, Out: old, OutOK: existed, Call: call, Ret: ret})
	return old, existed
}

// Delete performs and records a removal.
func (p *Proc[K, V]) Delete(key K) (V, bool) {
	call := p.r.clock.Add(1)
	old, existed := p.r.m.Delete(key)
	ret := p.r.clock.Add(1)
	p.record(Op[K, V]{Proc: p.id, Kind: KindDelete, Key: key, Out: old, OutOK: existed, Call: call, Ret: ret})
	return old, existed
}

// Scan performs a range scan over [lo, hi], recording one ScanStep per
// visited key, and returns the number of keys visited. It uses the
// dictionary's native RangeScan when implemented and falls back to a
// Successor walk otherwise (which requires the wrapped map to be a
// dict.OrderedMap; a map with neither capability records nothing and
// returns 0). Each step's interval brackets the read that produced it: the
// step's pair was current somewhere inside it.
func (p *Proc[K, V]) Scan(lo, hi K) int {
	scan := p.r.clock.Add(1)
	n := 0
	emit := func(k K, v V, call int64) {
		ret := p.r.clock.Add(1)
		p.record(Op[K, V]{Proc: p.id, Kind: KindScanStep, Key: k, Out: v, OutOK: true, Lo: lo, Hi: hi, Scan: scan, Call: call, Ret: ret})
		n++
	}
	if rg, ok := p.r.m.(dict.Ranger[K, V]); ok {
		// Every step's interval starts at the scan's invocation, not at the
		// previous step: a snapshot-based RangeScan observes all its pairs at
		// one capture instant shortly after the call, so a later step's pair
		// need not be current between the two steps' emissions - but it was
		// current somewhere in [call, step-return], which is what each
		// ScanStep asserts. (For a hand-over-hand scan the claim is merely
		// looser than the truth, so it stays sound for either kind.)
		rg.RangeScan(lo, hi, func(k K, v V) bool {
			emit(k, v, scan)
			return true
		})
		return n
	}
	om, ok := p.r.m.(dict.OrderedMap[K, V])
	if !ok || cmp.Less(hi, lo) {
		return 0
	}
	// Visit lo itself if present, then walk successors up to hi.
	if v, present := om.Get(lo); present {
		emit(lo, v, scan)
	}
	for k := lo; ; {
		call := p.r.clock.Add(1)
		nk, v, ok := om.Successor(k)
		if !ok || cmp.Less(hi, nk) {
			break
		}
		emit(nk, v, call)
		k = nk
	}
	return n
}
