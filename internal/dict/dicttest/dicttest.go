// Package dicttest provides a reusable conformance, fuzz and stress suite
// for dict.Map / dict.OrderedMap implementations, in the spirit of the
// fuzz-vs-model testing used for classic balanced-tree libraries: every
// operation is mirrored against a plain Go map (plus keys sorted by cmp.Less
// for the ordered queries), and a structure-specific invariant checker runs
// once the structure is quiescent.
//
// Every suite is generic over the key and value types. A caller passes an
// injective key function and an injective value function over the suite's
// selectors; the suite draws its selectors from a deterministic
// pseudo-random stream and builds each shape it needs (a key range, a
// shared key set, disjoint ascending runs, stable keys between churned
// ones) from them, so int64, string or composite-key targets run the same
// shapes.
//
// The repository-level tests (conformance_test.go at the module root) run
// this suite against every dictionary in the repository, with int64 and with
// string keys.
package dicttest

import (
	"cmp"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/linearize"
)

// TargetOf bundles a dictionary factory with an optional quiescent invariant
// check (for example the chromatic tree's weight invariants or the relaxed
// AVL tree's height bookkeeping).
type TargetOf[K cmp.Ordered, V comparable] struct {
	// Name labels subtests.
	Name string
	// New creates an empty dictionary.
	New func() dict.Map[K, V]
	// Check, if non-nil, verifies structure-specific invariants. It is only
	// called when no operations are in flight.
	Check func(dict.Map[K, V]) error
	// CheckOp, if non-nil, makes FuzzOps check the dictionary after every
	// operation instead of once per input: the whole content is compared
	// with the model and CheckOp verifies the invariants that hold between
	// any two operations of a sequential run. Unlike Check it must leave the
	// structure as it found it.
	CheckOp func(dict.Map[K, V]) error
}

// model is the reference implementation: a Go map plus cmp.Less-ordered
// queries. A Go map cannot find a NaN key, so the model holds none.
type model[K cmp.Ordered, V comparable] struct {
	m map[K]V
}

func newModel[K cmp.Ordered, V comparable]() *model[K, V] {
	return &model[K, V]{m: map[K]V{}}
}

func (md *model[K, V]) insert(k K, v V) (V, bool) {
	old, ok := md.m[k]
	md.m[k] = v
	return old, ok
}

func (md *model[K, V]) delete(k K) (V, bool) {
	old, ok := md.m[k]
	delete(md.m, k)
	return old, ok
}

func (md *model[K, V]) get(k K) (V, bool) {
	v, ok := md.m[k]
	return v, ok
}

func (md *model[K, V]) successor(k K) (K, V, bool) {
	var best K
	found := false
	for key := range md.m {
		if cmp.Less(k, key) && (!found || cmp.Less(key, best)) {
			best, found = key, true
		}
	}
	if !found {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best, md.m[best], true
}

func (md *model[K, V]) predecessor(k K) (K, V, bool) {
	var best K
	found := false
	for key := range md.m {
		if cmp.Less(key, k) && (!found || cmp.Less(best, key)) {
			best, found = key, true
		}
	}
	if !found {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best, md.m[best], true
}

func (md *model[K, V]) sortedKeys() []K {
	keys := make([]K, 0, len(md.m))
	for k := range md.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// applyChecked performs one operation against both the dictionary and the
// model and fails the test on any divergence. op is interpreted modulo 5.
func applyChecked[K cmp.Ordered, V comparable](t testing.TB, name string, d dict.Map[K, V], md *model[K, V], step int, op int, key K, val V) {
	t.Helper()
	om, ordered := d.(dict.OrderedMap[K, V])
	switch op % 5 {
	case 0:
		old, existed := d.Insert(key, val)
		mOld, mExisted := md.insert(key, val)
		if existed != mExisted || (existed && old != mOld) {
			t.Fatalf("%s step %d: Insert(%v,%v) = (%v,%v), model (%v,%v)", name, step, key, val, old, existed, mOld, mExisted)
		}
	case 1:
		old, existed := d.Delete(key)
		mOld, mExisted := md.delete(key)
		if existed != mExisted || (existed && old != mOld) {
			t.Fatalf("%s step %d: Delete(%v) = (%v,%v), model (%v,%v)", name, step, key, old, existed, mOld, mExisted)
		}
	case 2:
		v, ok := d.Get(key)
		mV, mOk := md.get(key)
		if ok != mOk || (ok && v != mV) {
			t.Fatalf("%s step %d: Get(%v) = (%v,%v), model (%v,%v)", name, step, key, v, ok, mV, mOk)
		}
	case 3:
		if !ordered {
			return
		}
		k, v, ok := om.Successor(key)
		mK, mV, mOk := md.successor(key)
		if ok != mOk || (ok && (k != mK || v != mV)) {
			t.Fatalf("%s step %d: Successor(%v) = (%v,%v,%v), model (%v,%v,%v)", name, step, key, k, v, ok, mK, mV, mOk)
		}
	default:
		if !ordered {
			return
		}
		k, v, ok := om.Predecessor(key)
		mK, mV, mOk := md.predecessor(key)
		if ok != mOk || (ok && (k != mK || v != mV)) {
			t.Fatalf("%s step %d: Predecessor(%v) = (%v,%v,%v), model (%v,%v,%v)", name, step, key, k, v, ok, mK, mV, mOk)
		}
	}
}

// finalCheck sweeps the model's final state, the Size report and the
// target's invariant checker.
func finalCheck[K cmp.Ordered, V comparable](t testing.TB, tgt TargetOf[K, V], d dict.Map[K, V], md *model[K, V]) {
	t.Helper()
	for _, k := range md.sortedKeys() {
		want := md.m[k]
		if got, ok := d.Get(k); !ok || got != want {
			t.Fatalf("%s: final Get(%v) = (%v,%v), want (%v,true)", tgt.Name, k, got, ok, want)
		}
	}
	if s, ok := d.(dict.Sized); ok {
		if s.Size() != len(md.m) {
			t.Fatalf("%s: Size() = %d, want %d", tgt.Name, s.Size(), len(md.m))
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check: %v", tgt.Name, err)
		}
	}
}

// checkContent compares everything an in-order scan of the dictionary emits
// with the model's sorted content. Dictionaries without Ascend are skipped. A
// mismatch stops the scan and is reported after it returns: a Fatalf that
// ends the goroutine inside the callback would leave the scan's epoch slot
// pinned for the rest of the process.
func checkContent[K cmp.Ordered, V comparable](t testing.TB, name string, step int, d dict.Map[K, V], md *model[K, V]) {
	t.Helper()
	asc, ok := d.(interface {
		Ascend(fn func(k K, v V) bool) int
	})
	if !ok {
		return
	}
	want := md.sortedKeys()
	i := 0
	var bad string
	n := asc.Ascend(func(k K, v V) bool {
		if i >= len(want) || k != want[i] || v != md.m[k] {
			bad = fmt.Sprintf("scan position %d holds (%v,%v)", i, k, v)
			return false
		}
		i++
		return true
	})
	if bad != "" {
		t.Fatalf("%s step %d: %s; the model's sorted keys are %v", name, step, bad, want)
	}
	if n != len(want) {
		t.Fatalf("%s step %d: scan emitted %d keys, model has %d", name, step, n, len(want))
	}
}

// lcg advances the suite's deterministic pseudo-random stream (a simple LCG
// so the suite does not depend on math/rand stability across Go releases).
func lcg(state *uint64) uint64 {
	*state = *state*2862933555777941757 + 3037000493
	return *state >> 11
}

// stressSeed returns the base seed a concurrent harness mixes into its
// per-goroutine random streams: the value of the DICTTEST_SEED environment
// variable if set (decimal, or hex with an 0x prefix), otherwise a
// run-unique value derived from the wall clock. When the test fails, the
// seed is logged so the failing run's operation streams can be replayed
// exactly with DICTTEST_SEED=<seed>. (Replay reproduces the streams, not
// the goroutine interleaving; for exhaustive interleaving control see
// internal/sched.)
func stressSeed(t *testing.T) uint64 {
	t.Helper()
	seed := uint64(time.Now().UnixNano())
	if env := os.Getenv("DICTTEST_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("invalid DICTTEST_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay this run's operation streams with DICTTEST_SEED=%d", seed)
		}
	})
	return seed
}

// SequentialConformance runs a deterministic pseudo-random operation
// sequence (including ordered queries when supported) against the model,
// over the keys key(0) .. key(keys-1); key must be injective.
func SequentialConformance[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], ops, keys int, key func(uint64) K, val func(uint64) V, seed int64) {
	t.Helper()
	d := tgt.New()
	md := newModel[K, V]()
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < ops; i++ {
		op := int(lcg(&state) % 5)
		k := key(lcg(&state) % uint64(keys))
		v := val(lcg(&state))
		applyChecked(t, tgt.Name, d, md, i, op, k, v)
	}
	finalCheck(t, tgt, d, md)
}

// fuzzInputDeadline bounds one input of FuzzOps. Inputs are a few hundred
// operations and take milliseconds; the bound only has to be far above that.
const fuzzInputDeadline = 30 * time.Second

// FuzzOps interprets data as an operation stream - three bytes per
// operation: opcode, key selector, value selector - and checks every result
// against the model. It is intended to be driven by go test's fuzzing
// engine. (It takes a testing.TB so that the seeded-mutation tests can hand
// it one that records the failure they expect.)
//
// An operation that never returns - a rebalancing step that installs a
// malformed subtree can leave the structure's own cleanup loop spinning on it
// - would otherwise surface only as the harness timeout, minutes later and
// with no word on which structure or which operation. So each input runs
// under a deadline, and a run that passes it is ended the way the testing
// package ends one that passes -timeout: by a panic, which here names both,
// followed by every goroutine's stack, which shows where the operation spins.
func FuzzOps[K cmp.Ordered, V comparable](t testing.TB, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V, data []byte) {
	t.Helper()
	fuzzOps(t, tgt, key, val, data, fuzzInputDeadline, func(report string) {
		debug.SetTraceback("all")
		panic(report)
	})
}

// fuzzOps is FuzzOps with the deadline of one input and what happens when
// it passes (on the timer's goroutine: the test's own is stuck in the
// operation) left to the caller.
func fuzzOps[K cmp.Ordered, V comparable](t testing.TB, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V, data []byte, deadline time.Duration, expired func(report string)) {
	t.Helper()
	d := tgt.New()
	md := newModel[K, V]()
	var step atomic.Int64 // the operation in flight, for the watchdog
	watchdog := time.AfterFunc(deadline, func() {
		report := fmt.Sprintf("dicttest: %s: operation %d of the input has not returned after %v", tgt.Name, step.Load(), deadline)
		// Every lbst tree has Height. The structure is not quiescent, but it
		// is not changing either if the operation is spinning.
		if h, ok := d.(interface{ Height() int }); ok {
			report += fmt.Sprintf(" (tree height %d)", h.Height())
		}
		expired(report)
	})
	defer watchdog.Stop()
	for i := 0; i+2 < len(data); i += 3 {
		step.Store(int64(i / 3))
		op := int(data[i])
		k := key(uint64(data[i+1]))
		v := val(uint64(data[i+2]))
		applyChecked(t, tgt.Name, d, md, i/3, op, k, v)
		if tgt.CheckOp != nil {
			checkContent(t, tgt.Name, i/3, d, md)
			if err := tgt.CheckOp(d); err != nil {
				t.Fatalf("%s step %d: invariant check after the operation: %v", tgt.Name, i/3, err)
			}
		}
	}
	finalCheck(t, tgt, d, md)
}

// SharedKeyStress runs procs goroutines of opsPerProc operations each, all
// over the same keys key(0) .. key(keys-1), and requires a linearizable
// history. The workers start on a barrier, so they overlap from their first
// operation. Their mix is 40 % Insert, 25 % Delete and 31 % Get, each
// through one linearize.Recorder; 2 % are range scans (Proc.Scan, recorded
// too) from a random key over up to a quarter of the keys (at least one),
// and on an ordered map the last 2 % are unrecorded Successor chains over
// the same span, each step of which must return a key of the set above the
// one before it. When the workers are done, one more proc reads every key,
// so the history also fixes the final state, which Size must match. Then
// linearize.Check searches the history, and checks every scan's steps
// against its range and order, and the target's quiescent Check runs. Proc
// g's i'th value is published(val, g, i); key and val must be injective.
//
// Two writers on one key is what a lost update needs; a history in which
// every writer keeps to its own keys cannot show one. The key count picks
// the shape: with two keys each key's leaf is the other's sibling, so every
// delete of one key copies the other's leaf while overwrites race that
// key's own finalization; with hundreds, the scans and chains are long and
// walk nodes that the writers retire and recycle under them.
func SharedKeyStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], procs, opsPerProc, keys int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	ks := keyWindow(key, 0, keys, 1)
	span := max(keys/4, 1)
	d := tgt.New()
	om, ordered := d.(dict.OrderedMap[K, V])
	rec := linearize.NewRecorder(d)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		p := rec.Proc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := seed + uint64(g)*0x9e3779b97f4a7c15 + 1
			<-start
			for i := 0; i < opsPerProc; i++ {
				j := int(lcg(&state) % uint64(keys))
				k, hi := ks[j], ks[min(j+span-1, keys-1)]
				switch r := lcg(&state) % 100; {
				case r < 40:
					p.Insert(k, published(val, g, i))
				case r < 65:
					p.Delete(k)
				case r < 96:
					p.Get(k)
				case r < 98:
					p.Scan(k, hi)
				case ordered:
					for prev, n := k, 0; n < span; n++ {
						sk, _, ok := om.Successor(prev)
						if !ok {
							break
						}
						if _, in := slices.BinarySearch(ks, sk); !in || !cmp.Less(prev, sk) {
							t.Errorf("%s: Successor(%v) returned %v", tgt.Name, prev, sk)
							return
						}
						if cmp.Less(hi, sk) {
							break
						}
						prev = sk
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	final, present := rec.Proc(), 0
	for _, k := range ks {
		if _, ok := final.Get(k); ok {
			present++
		}
	}
	if res := linearize.Check(rec.History()); !res.OK() {
		t.Fatalf("%s: history not linearizable:\n%s", tgt.Name, res.Report())
	}
	if s, ok := d.(dict.Sized); ok && s.Size() != present {
		t.Fatalf("%s: Size() = %d at quiescence, %d keys present", tgt.Name, s.Size(), present)
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// AscendingRuns builds a dictionary from procs concurrent runs of perRun
// keys each: run g inserts key(g*perRun) .. key(g*perRun+perRun-1) in
// ascending order and then deletes every other one of them, its first
// included. Each run's keys are its own, so every result is known: an
// insert must find its key absent and a delete must return the value the
// run inserted. At quiescence the content must be exactly what the runs
// left, Size must match it, and the target's Check must pass; for a
// balanced tree that check is the balance a sorted build must still reach
// when the builders race one another. Run g's i'th value is
// published(val, g, i); key and val must be injective.
func AscendingRuns[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], procs, perRun int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	d := tgt.New()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			run := func(i int) K { return key(uint64(g*perRun + i)) }
			for i := 0; i < perRun; i++ {
				if old, existed := d.Insert(run(i), published(val, g, i)); existed {
					t.Errorf("%s: run %d's Insert(%v) found (%v, true) on a key no other run touches", tgt.Name, g, run(i), old)
					return
				}
			}
			for i := 0; i < perRun; i += 2 {
				if old, existed := d.Delete(run(i)); !existed || old != published(val, g, i) {
					t.Errorf("%s: run %d's Delete(%v) = (%v, %v), want (%v, true)", tgt.Name, g, run(i), old, existed, published(val, g, i))
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	md := newModel[K, V]()
	for g := 0; g < procs; g++ {
		for i := 1; i < perRun; i += 2 {
			md.insert(key(uint64(g*perRun+i)), published(val, g, i))
		}
	}
	checkContent(t, tgt.Name, procs*perRun*3/2, d, md)
	finalCheck(t, tgt, d, md)
}

// StableKeyReaders fills the dictionary with the keys key(0) ..
// key(keys-1) sorted, and keeps every other one of them stable: writers
// insert and delete the keys between the stable ones until readers have
// each made probes probes. Nobody writes a stable key, so a reader's Get of
// one must always find it with the value it was filled with, however the
// structure is rebuilt around it. On an ordered map each probe also asks
// for the Successor and the Predecessor of a key of the set: each answer
// must be a key of the set with the value that key is always written with,
// on the right side of the key asked for and no further from it than the
// first stable key on that side, which it must find if there is one. At
// quiescence the stable keys must all be present and the target's Check
// must pass. Key i of the sorted set is always written with val(i); key
// and val must be injective.
func StableKeyReaders[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, readers, probes, keys int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	ks := keyWindow(key, 0, keys, 1)
	d := tgt.New()
	om, ordered := d.(dict.OrderedMap[K, V])
	for i := 0; i < keys; i += 2 {
		d.Insert(ks[i], val(uint64(i)))
	}
	// answers reports whether a neighbour query's answer is key j of the
	// set, with its value, for some j in [lo, hi], or no key when the
	// stable key it must otherwise find does not exist.
	answers := func(k K, v V, ok bool, lo, hi, stable int) bool {
		if !ok {
			return stable < 0 || stable >= keys
		}
		j, in := slices.BinarySearch(ks, k)
		return in && lo <= j && j <= hi && v == val(uint64(j))
	}
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			state := seed + uint64(w)*0x9e3779b97f4a7c15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(lcg(&state)%uint64(keys/2))*2 + 1
				if lcg(&state)&1 == 0 {
					d.Insert(ks[i], val(uint64(i)))
				} else {
					d.Delete(ks[i])
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			state := seed + uint64(writers+r)*0x9e3779b97f4a7c15 + 1
			for n := 0; n < probes; n++ {
				s := int(lcg(&state)%uint64((keys+1)/2)) * 2
				if v, ok := d.Get(ks[s]); !ok || v != val(uint64(s)) {
					t.Errorf("%s: Get(%v) = (%v, %v) on a stable key, want (%v, true)", tgt.Name, ks[s], v, ok, val(uint64(s)))
					return
				}
				if !ordered {
					continue
				}
				// The first stable keys above and below ks[p] bound its
				// neighbours.
				p := int(lcg(&state) % uint64(keys))
				next, prev := p+2-p%2, p-2+p%2
				if k, v, ok := om.Successor(ks[p]); !answers(k, v, ok, p+1, next, next) {
					t.Errorf("%s: Successor(%v) = (%v, %v, %v) with stable key %d of %d above it", tgt.Name, ks[p], k, v, ok, next, keys)
					return
				}
				if k, v, ok := om.Predecessor(ks[p]); !answers(k, v, ok, prev, p-1, prev) {
					t.Errorf("%s: Predecessor(%v) = (%v, %v, %v) with stable key %d of %d below it", tgt.Name, ks[p], k, v, ok, prev, keys)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < keys; i += 2 {
		if v, ok := d.Get(ks[i]); !ok || v != val(uint64(i)) {
			t.Fatalf("%s: Get(%v) = (%v, %v) at quiescence on a stable key, want (%v, true)", tgt.Name, ks[i], v, ok, val(uint64(i)))
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// published is writer w's i'th value in the stress suites: distinct for
// every (w, i) when val is injective.
func published[V any](val func(uint64) V, w, i int) V {
	return val(uint64(w)<<32 + uint64(i) + 1)
}

// keyWindow returns the n keys key(base), key(base+stride), ... sorted by
// cmp.Less.
func keyWindow[K cmp.Ordered](key func(uint64) K, base uint64, n, stride int) []K {
	w := make([]K, n)
	for i := range w {
		w[i] = key(base + uint64(i*stride))
	}
	slices.Sort(w)
	return w
}
