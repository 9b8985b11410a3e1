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
// shared key set, a hot key and its neighbours, a churn window) from
// them, so int64, string or composite-key targets run the same shapes.
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
// too) over up to four neighbouring keys, and on an ordered map the last
// 2 % are unrecorded Successor calls, which must return a key above the one
// asked for. When the workers are
// done, one more proc reads every key, so the history also fixes the final
// state, which Size must match. Then linearize.Check searches the history
// and the target's quiescent Check runs. Proc g's i'th value is
// published(val, g, i); key and val must be injective.
//
// Two writers on one key is what a lost update needs; a history in which
// every writer keeps to its own keys cannot show one.
func SharedKeyStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], procs, opsPerProc, keys int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	ks := keyWindow(key, 0, keys, 1)
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
				k := ks[j]
				switch r := lcg(&state) % 100; {
				case r < 40:
					p.Insert(k, published(val, g, i))
				case r < 65:
					p.Delete(k)
				case r < 96:
					p.Get(k)
				case r < 98:
					p.Scan(k, ks[min(j+3, keys-1)])
				case ordered:
					if sk, _, ok := om.Successor(k); ok && !cmp.Less(k, sk) {
						t.Errorf("%s: Successor(%v) returned %v", tgt.Name, k, sk)
						return
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

// HotKeyStress hammers ONE key: writers overwrite it (Insert on a present
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
// The hot key is key(1<<20) and the neighbours are key(1<<20-4) ..
// key(1<<20+4) without it: the dictionary holds nothing else, so they
// surround the hot key's leaf. Overwriter w's i'th value is
// published(val, w, i) and the churn goroutine's is val(^uint64(0)); key and
// val must be injective.
func HotKeyStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, overwritesPerWriter int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	d := tgt.New()
	const base = 1 << 20
	hot := key(base)
	neighbors := append(keyWindow(key, base-4, 4, 1), keyWindow(key, base+1, 4, 1)...)
	churnVal := val(^uint64(0))

	// The set of values that may legitimately be associated with the hot key
	// at any point, fixed before the workload starts.
	allowed := map[V]bool{churnVal: true}
	for w := 0; w < writers; w++ {
		for i := 0; i < overwritesPerWriter; i++ {
			v := published(val, w, i)
			if allowed[v] {
				t.Fatalf("writer %d's value %d collides with an earlier published value", w, i)
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
				old, existed := d.Insert(hot, published(val, w, i))
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

// ChurnStress is the reclamation torture test: writers insert and delete
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
// The window is the 64 keys key(1<<20) .. key(1<<20+63): the dictionary
// holds nothing else, so they are neighbours in it and deletes constantly
// promote and retire each other's nodes. Writer w's i'th value is
// published(val, w, i); key and val must be injective.
func ChurnStress[K cmp.Ordered, V comparable](t *testing.T, tgt TargetOf[K, V], writers, opsPerWriter int, key func(uint64) K, val func(uint64) V) {
	t.Helper()
	checkGoroutineLeaks(t)
	seed := stressSeed(t)
	d := tgt.New()
	const readers = 2
	window := keyWindow(key, 1<<20, 64, 1)
	om, ordered := d.(dict.OrderedMap[K, V])
	rng, ranged := d.(dict.Ranger[K, V])

	allowed := make(map[V]bool, writers*opsPerWriter)
	for w := 0; w < writers; w++ {
		for i := 0; i < opsPerWriter; i++ {
			v := published(val, w, i)
			if allowed[v] {
				t.Fatalf("writer %d's value %d collides with an earlier published value", w, i)
			}
			allowed[v] = true
		}
	}
	inWindow := make(map[K]bool, len(window))
	for i, k := range window {
		if i > 0 && !cmp.Less(window[i-1], k) {
			t.Fatalf("key is not injective: the window holds %v twice", k)
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
					d.Insert(k, published(val, w, i))
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

// published is writer w's i'th value in the stress suites: distinct for
// every (w, i), and distinct from val(^uint64(0)), when val is injective.
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
