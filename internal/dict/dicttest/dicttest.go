// Package dicttest provides a reusable conformance, fuzz and stress suite
// for dict.Map / dict.OrderedMap implementations, in the spirit of the
// fuzz-vs-model testing used for classic balanced-tree libraries: every
// operation is mirrored against a plain Go map (plus keys sorted by cmp.Less
// for the ordered queries), and a structure-specific invariant checker runs
// once the structure is quiescent.
//
// The suite is generic over the key and value types (TargetOf and the *KV
// functions); the historical int64 entry points (Target,
// SequentialConformance, FuzzOps, ConcurrentStress) are thin wrappers kept
// for the repository-level tests that predate the generic dictionary stack.
// Keys and values are produced by caller-supplied derivation functions from
// the suite's deterministic pseudo-random stream, so the same machinery
// drives int64, string or composite-key targets.
//
// The repository-level tests (conformance_test.go at the module root) run
// this suite against every tree built on the LLX/SCX template - EBST, RAVL,
// Chromatic and Chromatic6 - through the benchmark registry, and against
// string-keyed instantiations of the generic trees directly.
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
	// CheckOp, if non-nil, makes FuzzOpsKV check the dictionary after every
	// operation instead of once per input: the whole content is compared
	// with the model and CheckOp verifies the invariants that hold between
	// any two operations of a sequential run. Unlike Check it must leave the
	// structure as it found it.
	CheckOp func(dict.Map[K, V]) error
}

// Target is the historical int64 form of TargetOf, used by tests written
// against the pre-generic dictionary stack.
type Target struct {
	// Name labels subtests.
	Name string
	// New creates an empty dictionary.
	New func() dict.IntMap
	// Check, if non-nil, verifies structure-specific invariants. It is only
	// called when no operations are in flight.
	Check func(dict.IntMap) error
	// CheckOp is TargetOf.CheckOp.
	CheckOp func(dict.IntMap) error
}

// generic converts an int64 Target to the generic form.
func (tgt Target) generic() TargetOf[int64, int64] {
	return TargetOf[int64, int64]{
		Name:    tgt.Name,
		New:     tgt.New,
		Check:   tgt.Check,
		CheckOp: tgt.CheckOp,
	}
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

// SequentialConformanceKV runs a deterministic pseudo-random operation
// sequence (including ordered queries when supported) against the model.
// key and val derive the operation's key and value from the suite's random
// stream; key controls the effective key-space density.
func SequentialConformanceKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], ops int, key func(uint64) K, val func(uint64) V, seed int64) {
	t.Helper()
	d := tgt.New()
	md := newModel[K, V]()
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < ops; i++ {
		op := int(lcg(&state) % 5)
		k := key(lcg(&state))
		v := val(lcg(&state))
		applyChecked(t, tgt.Name, d, md, i, op, k, v)
	}
	finalCheck(t, tgt, d, md)
}

// SequentialConformance is the int64 wrapper around SequentialConformanceKV
// with keys drawn uniformly from [0, keyRange).
func SequentialConformance(t *testing.T, tgt Target, ops int, keyRange int64, seed int64) {
	t.Helper()
	SequentialConformanceKV(t, tgt.generic(), ops,
		func(u uint64) int64 { return int64(u % uint64(keyRange)) },
		func(u uint64) int64 { return int64(u % (1 << 30)) },
		seed)
}

// fuzzInputDeadline bounds one input of FuzzOpsKV. Inputs are a few hundred
// operations and take milliseconds; the bound only has to be far above that.
const fuzzInputDeadline = 30 * time.Second

// FuzzOpsKV interprets data as an operation stream - three bytes per
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
func FuzzOpsKV[K cmp.Ordered, V comparable](t testing.TB, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V, data []byte) {
	t.Helper()
	fuzzOpsKV(t, tgt, key, val, data, fuzzInputDeadline, func(report string) {
		debug.SetTraceback("all")
		panic(report)
	})
}

// fuzzOpsKV is FuzzOpsKV with the deadline of one input and what happens when
// it passes (on the timer's goroutine: the test's own is stuck in the
// operation) left to the caller.
func fuzzOpsKV[K cmp.Ordered, V comparable](t testing.TB, tgt TargetOf[K, V], key func(uint64) K, val func(uint64) V, data []byte, deadline time.Duration, expired func(report string)) {
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

// FuzzOps is the int64 wrapper around FuzzOpsKV: keys and values are the
// raw selector bytes.
func FuzzOps(t testing.TB, tgt Target, data []byte) {
	t.Helper()
	FuzzOpsKV(t, tgt.generic(),
		func(u uint64) int64 { return int64(u) },
		func(u uint64) int64 { return int64(u) },
		data)
}

// ConcurrentStressKV applies a mixed workload from several goroutines over
// per-goroutine disjoint key spaces (so the final per-key state is known
// regardless of interleaving), sprinkles in ordered queries whose results
// must satisfy their contract, and runs the invariant checker at
// quiescence. key derives goroutine g's keys from the random stream and
// must return disjoint key sets for distinct g.
func ConcurrentStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], goroutines, opsPerG int, key func(g int, u uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	d := tgt.New()
	om, ordered := d.(dict.OrderedMap[K, V])
	type final = map[K]V
	finals := make([]final, goroutines)
	deleted := make([]map[K]bool, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- g }()
			state := seed + uint64(g)*0x9e3779b97f4a7c15 + 1
			f := final{}
			dead := map[K]bool{}
			for i := 0; i < opsPerG; i++ {
				k := key(g, lcg(&state))
				switch lcg(&state) % 4 {
				case 0, 1:
					v := val(lcg(&state))
					d.Insert(k, v)
					f[k] = v
					delete(dead, k)
				case 2:
					d.Delete(k)
					delete(f, k)
					dead[k] = true
				default:
					if ordered {
						if sk, _, ok := om.Successor(k); ok && !cmp.Less(k, sk) {
							t.Errorf("%s: Successor(%v) returned %v", tgt.Name, k, sk)
							return
						}
					} else {
						d.Get(k)
					}
				}
			}
			finals[g] = f
			deleted[g] = dead
		}(g)
	}
	for range goroutines {
		<-done
	}
	if t.Failed() {
		return
	}
	for g := range finals {
		for k, want := range finals[g] {
			v, ok := d.Get(k)
			if !ok || v != want {
				t.Fatalf("%s: goroutine %d key %v = (%v,%v), want (%v,true)", tgt.Name, g, k, v, ok, want)
			}
		}
		for k := range deleted[g] {
			if v, ok := d.Get(k); ok {
				t.Fatalf("%s: goroutine %d key %v present with %v, want deleted", tgt.Name, g, k, v)
			}
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// ConcurrentStress is the int64 wrapper around ConcurrentStressKV: goroutine
// g owns the key range [g*keysPerG, (g+1)*keysPerG).
func ConcurrentStress(t *testing.T, tgt Target, goroutines, opsPerG int, keysPerG int64) {
	t.Helper()
	ConcurrentStressKV(t, tgt.generic(), goroutines, opsPerG,
		func(g int, u uint64) int64 { return int64(g)*keysPerG + int64(u%uint64(keysPerG)) },
		func(u uint64) int64 { return int64(u % (1 << 20)) })
}

// HotKeyStressKV hammers ONE key: writers overwrite it (Insert on a present
// key), a churn goroutine concurrently inserts and deletes that same key,
// and a neighbour goroutine inserts and deletes the keys around it (which,
// in the template trees, forces the hot leaf through sibling-promotion
// copies and rebalancing copies - exactly the machinery an in-place
// overwrite must survive). It asserts:
//
//   - every value ever observed for the hot key (by a Get, or as the
//     previous value returned by an overwrite or delete) is one that some
//     writer actually published - no torn, recycled or out-of-thin-air
//     values;
//   - no lost finalization: after the workload quiesces and a final
//     drain-delete of the hot key succeeds, the key stays absent - an
//     overwrite that raced with a concurrent delete must never resurrect
//     the value;
//   - the structure's invariant checker passes at quiescence.
//
// val must return a distinct value for every (writer, i) pair and must not
// collide with churnVal; both are "published" values. writer indices 0..
// writers-1 are the overwriters.
func HotKeyStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, overwritesPerWriter int, hot K, neighbors []K, val func(writer, i int) V, churnVal V) {
	t.Helper()
	checkGoroutineLeaks(t)
	d := tgt.New()

	// The set of values that may legitimately be associated with the hot key
	// at any point, fixed before the workload starts.
	allowed := map[V]bool{churnVal: true}
	for w := 0; w < writers; w++ {
		for i := 0; i < overwritesPerWriter; i++ {
			v := val(w, i)
			if allowed[v] {
				t.Fatalf("val(%d,%d) collides with an earlier published value", w, i)
			}
			allowed[v] = true
		}
	}

	d.Insert(hot, churnVal)
	checkObserved := func(who string, v V, ok bool) {
		if ok && !allowed[v] {
			t.Errorf("%s: observed value %v for the hot key that no writer published", who, v)
		}
	}

	var overwriters, churners sync.WaitGroup
	stop := make(chan struct{})
	// Overwriters: Insert on the (usually) present hot key.
	for w := 0; w < writers; w++ {
		overwriters.Add(1)
		go func(w int) {
			defer overwriters.Done()
			for i := 0; i < overwritesPerWriter; i++ {
				old, existed := d.Insert(hot, val(w, i))
				checkObserved("overwriter", old, existed)
				if i%16 == 0 {
					v, ok := d.Get(hot)
					checkObserved("reader", v, ok)
				}
			}
		}(w)
	}
	// Churn: insert and delete the hot key itself, so overwrites race with
	// the key's finalization. Runs until the overwriters are done.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				old, existed := d.Delete(hot)
				checkObserved("deleter", old, existed)
			} else {
				old, existed := d.Insert(hot, churnVal)
				checkObserved("churn-inserter", old, existed)
			}
		}
	}()
	// Neighbours: churn the keys around the hot key, forcing the hot leaf
	// through copies (sibling promotion on delete, rebalancing steps).
	churners.Add(1)
	go func() {
		defer churners.Done()
		var zero V
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := neighbors[i%len(neighbors)]
			if (i/len(neighbors))%2 == 0 {
				d.Insert(k, zero)
			} else {
				d.Delete(k)
			}
		}
	}()

	overwriters.Wait()
	close(stop)
	churners.Wait()

	// Quiescent drain: delete the hot key until it reports absent. Each
	// successful delete must return a published value; after the drain the
	// key must stay absent - a resurrected value here means an overwrite
	// re-linked a finalized leaf.
	for {
		old, existed := d.Delete(hot)
		if !existed {
			break
		}
		checkObserved("drain-deleter", old, existed)
	}
	// At quiescence one Get would do; the repeats are deliberate cheap
	// paranoia against a delayed re-link surfacing on a later read path
	// (they cost microseconds against a structure this size).
	for i := 0; i < 100; i++ {
		if v, ok := d.Get(hot); ok {
			t.Fatalf("hot key resurrected after a successful quiescent delete: value %v", v)
		}
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// HotKeyStress is the int64 wrapper around HotKeyStressKV: the hot key sits
// in the middle of a small neighbourhood, writer w's i'th value is
// w*2^32 + i + 1 and the churn value is -1 (distinct from every writer
// value).
func HotKeyStress(t *testing.T, tgt Target, writers, overwritesPerWriter int) {
	t.Helper()
	const hot = int64(1 << 20)
	neighbors := []int64{hot - 4, hot - 3, hot - 2, hot - 1, hot + 1, hot + 2, hot + 3, hot + 4}
	HotKeyStressKV(t, tgt.generic(), writers, overwritesPerWriter, hot, neighbors,
		func(w, i int) int64 { return int64(w)<<32 + int64(i) + 1 },
		int64(-1))
}

// ChurnStressKV is the reclamation torture test: writers insert and delete
// keys from ONE shared window as fast as possible - so every node backing
// those keys is retired and recycled over and over - while reader goroutines
// continuously walk the window with Successor chains and RangeScan. The
// dictionary contains only window keys, which gives the readers sharp
// assertions against use-after-recycle bugs:
//
//   - every key a walk or scan returns must be a window key (a foreign key
//     means a reader followed a recycled node into a different part of some
//     tree's lifetime);
//   - every value returned for a window key must be one some writer actually
//     published (a stale or torn value means a node was reused while the
//     reader still held it);
//   - Successor results must move strictly forward and RangeScan must yield
//     strictly ascending keys (a cycle or regression means a reader's
//     traversal crossed a recycled pointer).
//
// Under the reclaimcheck build tag the template trees additionally poison
// recycled nodes with a generation counter and the read paths assert that no
// node changes generation mid-snapshot, converting "reader held a recycled
// node" from a probabilistic value-corruption signal into a deterministic
// panic. Run the test under -race as well: the epoch grace period is what
// makes recycling a node's fields race-free, so any hole in it surfaces as a
// race report here.
//
// window must be sorted ascending by cmp.Less and contain no duplicates. val
// must return a distinct value for every (writer, i) pair.
func ChurnStressKV[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, opsPerWriter, readers int, window []K, val func(writer, i int) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	d := tgt.New()
	om, ordered := d.(dict.OrderedMap[K, V])
	rng, ranged := d.(dict.Ranger[K, V])

	allowed := make(map[V]bool, writers*opsPerWriter)
	for w := 0; w < writers; w++ {
		for i := 0; i < opsPerWriter; i++ {
			v := val(w, i)
			if allowed[v] {
				t.Fatalf("val(%d,%d) collides with an earlier published value", w, i)
			}
			allowed[v] = true
		}
	}
	inWindow := make(map[K]bool, len(window))
	for i, k := range window {
		if i > 0 && !cmp.Less(window[i-1], k) {
			t.Fatalf("window must be sorted ascending without duplicates (index %d)", i)
		}
		inWindow[k] = true
	}
	lo, hi := window[0], window[len(window)-1]

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Writers: all hammer the same window, so a key's leaf is deleted by one
	// goroutine while another re-inserts it and a third walks past it.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			state := seed + uint64(w)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
			for i := 0; i < opsPerWriter; i++ {
				k := window[lcg(&state)%uint64(len(window))]
				if lcg(&state)&1 == 0 {
					d.Insert(k, val(w, i))
				} else {
					d.Delete(k)
				}
			}
		}(w)
	}
	// Readers: walk the window end to end, over and over, until the writers
	// finish. Each full pass revisits memory the writers have recycled many
	// times since the pass began.
	checkEntry := func(who string, k K, v V) bool {
		if !inWindow[k] {
			t.Errorf("%s: returned key %v outside the churn window", who, k)
			return false
		}
		if !allowed[v] {
			t.Errorf("%s: observed value %v for key %v that no writer published", who, v, k)
			return false
		}
		return true
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Point probes on the window ends keep plain Get in the mix.
				for _, k := range [2]K{lo, hi} {
					if v, ok := d.Get(k); ok && !checkEntry("get", k, v) {
						return
					}
				}
				if ordered {
					// Successor chain across the window, starting from its
					// smallest key. Each step must move strictly forward and
					// stay inside the window until it leaves the top end.
					prev := lo
					for steps := 0; steps <= len(window); steps++ {
						k, v, ok := om.Successor(prev)
						if !ok || cmp.Less(hi, k) {
							break
						}
						if !cmp.Less(prev, k) {
							t.Errorf("successor walk: Successor(%v) returned %v, not strictly greater", prev, k)
							return
						}
						if !checkEntry("successor walk", k, v) {
							return
						}
						prev = k
					}
				}
				if ranged {
					first := true
					var last K
					rng.RangeScan(lo, hi, func(k K, v V) bool {
						if !first && !cmp.Less(last, k) {
							t.Errorf("range scan: key %v after %v, not strictly ascending", k, last)
							return false
						}
						first, last = false, k
						return checkEntry("range scan", k, v)
					})
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}
	if tgt.Check != nil {
		if err := tgt.Check(d); err != nil {
			t.Fatalf("%s: invariant check at quiescence: %v", tgt.Name, err)
		}
	}
}

// ChurnStress is the int64 wrapper around ChurnStressKV: a 64-key window of
// consecutive keys (consecutive so leaves in the window are siblings and
// deletes constantly promote and retire each other's nodes), writer w's i'th
// value is w*2^32 + i + 1.
func ChurnStress(t *testing.T, tgt Target, writers, opsPerWriter int) {
	t.Helper()
	const base = int64(1 << 20)
	window := make([]int64, 64)
	for i := range window {
		window[i] = base + int64(i)
	}
	ChurnStressKV(t, tgt.generic(), writers, opsPerWriter, 2, window,
		func(w, i int) int64 { return int64(w)<<32 + int64(i) + 1 })
}
