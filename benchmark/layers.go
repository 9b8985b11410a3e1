package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/epoch"
	"repro/internal/llxscx"
	"repro/internal/ravl"
	"repro/internal/seqrbt"
	"repro/internal/vcell"
	"repro/internal/workload"
)

// The layer run times each layer's exported calls in isolation, on records,
// cells and int64 trees the benchmark owns: a fixed number of iterations,
// layerReps repetitions, the median in ns per call. It attributes an
// operation's cost to layers from outside; nothing inside the trees is
// instrumented.
const layerReps = 5

// sink keeps measured calls from being optimised away.
var sink int64

type layerRun struct {
	seed uint64
	div  int
	set  func(name string, v float64, note string)
}

// measure runs fn(n) layerReps times and returns the median ns and the median
// heap allocations per iteration.
func (l *layerRun) measure(iters int, fn func(n int)) (ns, allocs float64) {
	n := max(iters/l.div, 1)
	var nss, als []float64
	var ms runtime.MemStats
	for rep := 0; rep < layerReps; rep++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fn(n)
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(el)/float64(n))
		als = append(als, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(nss), median(als)
}

func (l *layerRun) time(name string, iters int, fn func(n int)) {
	ns, _ := l.measure(iters, fn)
	l.set(name, ns, "")
}

// time2 is time with two goroutines running fn(g, n) at once; the value is
// the mean of each goroutine's own ns per call.
func (l *layerRun) time2(name string, iters int, fn func(g, n int)) {
	n := max(iters/l.div, 1)
	var reps []float64
	for rep := 0; rep < layerReps; rep++ {
		var el [2]time.Duration
		together(len(el), func(g int) {
			t0 := time.Now()
			fn(g, n)
			el[g] = time.Since(t0)
		})
		reps = append(reps, float64(el[0]+el[1])/2/float64(n))
	}
	l.set(name, median(reps), "2 goroutines")
}

// rec is the benchmark's own Data-record: a binary node, like the trees'.
type rec struct {
	r           llxscx.Record[rec]
	left, right atomic.Pointer[rec]
}

func (n *rec) LLXRecord() *llxscx.Record[rec] { return &n.r }
func (n *rec) NumMutable() int                { return 2 }
func (n *rec) Mutable(i int) *atomic.Pointer[rec] {
	if i == 0 {
		return &n.left
	}
	return &n.right
}

func newRec(left, right *rec) *rec {
	n := &rec{}
	n.left.Store(left)
	n.right.Store(right)
	return n
}

// runLayers measures every layer and reports through set. It returns the
// structure checks that failed.
func runLayers(seed int64, div int, set func(name string, v float64, note string)) []string {
	l := &layerRun{seed: uint64(seed), div: max(div, 1), set: set}
	l.harness()
	l.epoch()
	l.llxscx()
	l.vcell()
	return l.trees()
}

func (l *layerRun) harness() {
	gu := workload.NewGenerator(workload.Mix20i10d, 10_000, int64(l.seed))
	l.time("workload.next_uniform_ns", 1_200_000, func(n int) {
		for i := 0; i < n; i++ {
			_, k := gu.Next()
			sink += k
		}
	})
	gz := workload.NewGeneratorDist(workload.Mix20i10d, 10_000, workload.DistZipf, int64(l.seed))
	l.time("workload.next_zipf_ns", 300_000, func(n int) {
		for i := 0; i < n; i++ {
			_, k := gz.Next()
			sink += k
		}
	})
	// The timed loop itself, sampling and oracle included, against a map
	// that does nothing: the floor under throughput on every workload.
	w := newWorker(0, noopStore{}, newStream(int64(l.seed), 0, workload.Mix20i10d, workload.DistUniform, 10_000), sampleEvery-1)
	l.time("dict.noop_loop_ns", 1_200_000, func(n int) { w.run(time.Hour, int64(n)) })
	l.time("host.timer_ns", 240_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(time.Since(time.Now()))
		}
	})
	// A sequential red-black tree Get: nothing of this repository's
	// concurrent machinery, so it dates the host's speed for a run.
	calib := seqrbt.New()
	workload.PrefillExact(calib, 10_000, 5_000, int64(l.seed))
	st := l.seed
	l.time("host.calib_ns", 240_000, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := calib.Get(uniformKey(&st, 10_000))
			sink += v
		}
	})
}

func uniformKey(state *uint64, keyRange uint64) int64 {
	hi, _ := bits.Mul64(splitmix64(state), keyRange)
	return int64(hi)
}

func (l *layerRun) epoch() {
	l.time("epoch.pin_unpin_ns", 1_200_000, func(n int) {
		for i := 0; i < n; i++ {
			epoch.Unpin(epoch.Pin())
		}
	})
	l.time2("epoch.pin_unpin_2t_ns", 600_000, func(_, n int) {
		for i := 0; i < n; i++ {
			epoch.Unpin(epoch.Pin())
		}
	})
	obj := new(int64)
	free := func(*epoch.Guard, any) bool { return true }
	l.time("epoch.pin_retire_unpin_ns", 300_000, func(n int) {
		for i := 0; i < n; i++ {
			g := epoch.Pin()
			epoch.Retire(g, obj, free)
			epoch.Unpin(g)
		}
	})
	epoch.Drain()
	l.time("epoch.snap_pin_release_ns", 600_000, func(n int) {
		for i := 0; i < n; i++ {
			epoch.SnapPin().Release()
		}
	})
}

func (l *layerRun) llxscx() {
	root := newRec(newRec(nil, nil), newRec(nil, nil))
	l.time("llxscx.llx_ns", 600_000, func(n int) {
		for i := 0; i < n; i++ {
			lk, _ := llxscx.LLX(root)
			sink += int64(lk.NumChildren())
		}
	})
	var v3 [llxscx.MaxV]llxscx.Linked[rec]
	v3[0], _ = llxscx.LLX(root)
	v3[1], _ = llxscx.LLX(root.left.Load())
	v3[2], _ = llxscx.LLX(root.right.Load())
	l.time("llxscx.vlx_fixed_3_ns", 1_200_000, func(n int) {
		for i := 0; i < n; i++ {
			if llxscx.VLXFixed(&v3, 3) {
				sink++
			}
		}
	})

	// One uncontended update the way a tree issues it: LLX the parent and the
	// child, build the replacement, SCX with the child finalized. v4 adds two
	// grandchildren to the evidence, as a rebalancing step does.
	// The root is fresh in every repetition: an unpooled descriptor keeps its
	// predecessors reachable through its expected values, so one long chain
	// would grow the heap for the whole run.
	scx := func(nv int) func(n int) {
		return func(n int) {
			root := newRec(newRec(newRec(nil, nil), newRec(nil, nil)), nil)
			var v [llxscx.MaxV]llxscx.Linked[rec]
			var fin [llxscx.MaxV]*rec
			for i := 0; i < n; i++ {
				v[0], _ = llxscx.LLX(root)
				child := v[0].Child(0)
				v[1], _ = llxscx.LLX(child)
				gl, gr := v[1].Child(0), v[1].Child(1)
				if nv == 4 {
					v[2], _ = llxscx.LLX(gl)
					v[3], _ = llxscx.LLX(gr)
				}
				fin[0] = child
				if !llxscx.SCXFixed(&v, nv, &fin, 1, &root.left, child, newRec(gl, gr)) {
					panic("benchmark: uncontended SCXFixed failed")
				}
			}
		}
	}
	ns, allocs := l.measure(30_000, scx(2))
	l.set("llxscx.scx_fixed_v2_ns", ns, "2 LLX + 1 node + SCX")
	l.set("llxscx.scx_fixed_v2_allocs", allocs, "")
	l.time("llxscx.scx_fixed_v4_ns", 30_000, scx(4))

	// The same update with a pooled descriptor, under an epoch pin, the
	// replaced node retired and recycled: what the trees' update path does.
	pool := llxscx.NewPool[rec]()
	nodes := sync.Pool{New: func() any { return new(rec) }}
	free := func(_ *epoch.Guard, obj any) bool {
		n := obj.(*rec)
		llxscx.ReleaseRecord(&n.r)
		nodes.Put(n)
		return true
	}
	proot := newRec(newRec(nil, nil), nil)
	ns, allocs = l.measure(60_000, func(n int) {
		var v [llxscx.MaxV]llxscx.Linked[rec]
		var fin [llxscx.MaxV]*rec
		for i := 0; i < n; i++ {
			g := epoch.Pin()
			v[0], _ = llxscx.LLX(proot)
			child := v[0].Child(0)
			v[1], _ = llxscx.LLX(child)
			fin[0] = child
			if !llxscx.SCXP(g, pool, &v, 2, &fin, 1, &proot.left, child, nodes.Get().(*rec)) {
				panic("benchmark: uncontended SCXP failed")
			}
			epoch.Retire(g, child, free)
			epoch.Unpin(g)
		}
	})
	l.set("llxscx.scxp_v2_ns", ns, "pinned, pooled, node recycled")
	l.set("llxscx.scxp_v2_allocs", allocs, "")
	epoch.Drain()

	// Two goroutines updating one parent: the share of SCX attempts that
	// commit, the layer's wasted work under contention.
	croot := newRec(newRec(nil, nil), nil)
	var ok, tries atomic.Int64
	n := max(60_000/l.div, 1)
	together(2, func(int) {
		var v [llxscx.MaxV]llxscx.Linked[rec]
		var fin [llxscx.MaxV]*rec
		var myOK, myTries int64
		defer func() { ok.Add(myOK); tries.Add(myTries) }()
		for myTries < int64(n) {
			var st llxscx.Status
			if v[0], st = llxscx.LLX(croot); st != llxscx.Snapshot {
				continue
			}
			child := v[0].Child(0)
			if v[1], st = llxscx.LLX(child); st != llxscx.Snapshot {
				continue
			}
			fin[0] = child
			myTries++
			if llxscx.SCXFixed(&v, 2, &fin, 1, &croot.left, child, newRec(nil, nil)) {
				myOK++
			}
		}
	})
	l.set("llxscx.scx_2t_success_frac", float64(ok.Load())/float64(tries.Load()), fmt.Sprintf("%d attempts", tries.Load()))
}

func (l *layerRun) vcell() {
	c := vcell.New[int64](1)
	l.time("vcell.load_ns", 4_800_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += c.Load()
		}
	})
	l.time("vcell.swap_ns", 2_400_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += c.Swap(int64(i))
		}
	})
	bracket := func(_, n int) {
		for i := 0; i < n; i++ {
			c.BeginPublish()
			c.Swap(int64(i))
			c.EndPublish()
		}
	}
	l.time("vcell.publish_bracket_ns", 600_000, func(n int) { bracket(0, n) })
	l.time2("vcell.publish_bracket_2t_ns", 180_000, bracket)
	l.time("vcell.drain_idle_ns", 4_800_000, func(n int) {
		for i := 0; i < n; i++ {
			c.DrainPublishers()
		}
	})
}

// fill inserts keyRange/2 distinct uniform keys (what workload.PrefillExact
// does) and returns which keys are present, so the measurements below can
// choose operations whose outcome they know.
func (l *layerRun) fill(t store, keyRange int64) []bool {
	present := make([]bool, keyRange)
	st := l.seed
	for n := int64(0); n < keyRange/2; {
		k := uniformKey(&st, uint64(keyRange))
		if !present[k] {
			present[k] = true
			t.Insert(k, k)
			n++
		}
	}
	return present
}

func (l *layerRun) get(name string, t store, keyRange int64, iters int) {
	st := l.seed + 1
	l.time(name, iters, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := t.Get(uniformKey(&st, uint64(keyRange)))
			sink += v
		}
	})
}

// insdel times pure structural updates: a uniform key is deleted if present
// and inserted if absent, so every call is exactly one SCX update. It returns
// the number of updates made, for the exact rebalance_per_update counts.
func (l *layerRun) insdel(nsName, allocsName string, t store, present []bool) int64 {
	st := l.seed + 2
	var updates int64
	ns, allocs := l.measure(24_000, func(n int) {
		for i := 0; i < n; i++ {
			k := uniformKey(&st, uint64(len(present)))
			if present[k] {
				t.Delete(k)
			} else {
				t.Insert(k, k)
			}
			present[k] = !present[k]
		}
		updates += int64(n)
	})
	l.set(nsName, ns, "every call one SCX update")
	if allocsName != "" {
		l.set(allocsName, allocs, "")
	}
	return updates
}

func (l *layerRun) overwrite(name string, t store, present []bool) {
	var keys []int64
	for k, p := range present {
		if p {
			keys = append(keys, int64(k))
		}
	}
	st := l.seed + 3
	l.time(name, 120_000, func(n int) {
		for i := 0; i < n; i++ {
			k := keys[uniformKey(&st, uint64(len(keys)))]
			old, _ := t.Insert(k, k)
			sink += old
		}
	})
}

func countVisit(int64, int64) bool { sink++; return true }

func (l *layerRun) scan(name string, t store, keyRange int64, snap bool) {
	st := l.seed + 4
	iters := 1_200
	if snap {
		iters = 6_000
	}
	l.time(name, iters, func(n int) {
		for i := 0; i < n; i++ {
			lo := uniformKey(&st, uint64(keyRange))
			if snap {
				v := t.Snapshot()
				v.RangeScan(lo, lo+scanSpan-1, countVisit)
				v.Release()
			} else {
				t.RangeScan(lo, lo+scanSpan-1, countVisit)
			}
		}
	})
}

func (l *layerRun) trees() (problems []string) {
	for _, size := range []struct {
		name     string
		keyRange int64
		iters    int
	}{{"1e2", 100, 300_000}, {"1e6", 1_000_000, 30_000}} {
		kr := max(size.keyRange/int64(l.div), 100) // tests shrink the big tree
		t := chromatic.New()
		l.fill(t, kr)
		l.get("chromatic.get_"+size.name+"_ns", t, kr, size.iters)
	}

	const keyRange = 10_000
	ct := chromatic.New()
	present := l.fill(ct, keyRange)
	l.get("chromatic.get_1e4_ns", ct, keyRange, 200_000)
	r0 := ct.Stats().RebalanceTotal()
	updates := l.insdel("chromatic.insdel_1e4_ns", "chromatic.insdel_1e4_allocs", ct, present)
	l.set("chromatic.rebalance_per_update", float64(ct.Stats().RebalanceTotal()-r0)/float64(updates), fmt.Sprintf("exact: %d updates", updates))
	l.set("chromatic.height_1e4", float64(ct.Height()), "exact")
	l.overwrite("chromatic.overwrite_1e4_ns", ct, present)
	st := l.seed + 5
	l.time("chromatic.successor_1e4_ns", 30_000, func(n int) {
		for i := 0; i < n; i++ {
			k, _, _ := ct.Successor(uniformKey(&st, keyRange))
			sink += k
		}
	})
	l.scan("chromatic.scan100_1e4_ns", ct, keyRange, false)
	l.time("chromatic.snapshot_capture_release_ns", 60_000, func(n int) {
		for i := 0; i < n; i++ {
			ct.Snapshot().Release()
		}
	})
	l.scan("chromatic.snap_scan100_1e4_ns", ct, keyRange, true)
	view := ct.Snapshot()
	l.time("chromatic.snap_get_1e4_ns", 60_000, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := view.Get(uniformKey(&st, keyRange))
			sink += v
		}
	})
	view.Release()
	if err := ct.CheckInvariants(); err != nil {
		problems = append(problems, fmt.Sprintf("layers: chromatic CheckInvariants: %v", err))
	}

	// The same measurements through the shared lbst engine. Nothing end to
	// end runs on it yet; once chromatic is folded onto lbst each of these
	// is its chromatic.* twin's successor, and this is the before/after table.
	rt := ravl.New()
	present = l.fill(rt, keyRange)
	l.get("lbst.ravl_get_1e4_ns", rt, keyRange, 200_000)
	r0 = rt.Stats().RebalanceTotal()
	updates = l.insdel("lbst.ravl_insdel_1e4_ns", "", rt, present)
	l.set("lbst.ravl_rebalance_per_update", float64(rt.Stats().RebalanceTotal()-r0)/float64(updates), fmt.Sprintf("exact: %d updates", updates))
	l.overwrite("lbst.ravl_overwrite_1e4_ns", rt, present)
	l.scan("lbst.ravl_scan100_1e4_ns", rt, keyRange, false)
	l.scan("lbst.ravl_snap_scan100_1e4_ns", rt, keyRange, true)
	if err := rt.CheckStructure(); err != nil {
		problems = append(problems, fmt.Sprintf("layers: RAVL CheckStructure: %v", err))
	}

	et := ebst.New()
	present = l.fill(et, keyRange)
	l.get("lbst.ebst_get_1e4_ns", et, keyRange, 200_000)
	l.insdel("lbst.ebst_insdel_1e4_ns", "", et, present)
	if err := et.CheckStructure(); err != nil {
		problems = append(problems, fmt.Sprintf("layers: EBST CheckStructure: %v", err))
	}
	return problems
}

// noopStore is a map that does nothing, for the harness floor.
type noopStore struct{}

func (noopStore) Get(int64) (int64, bool)           { return 0, false }
func (noopStore) Insert(int64, int64) (int64, bool) { return 0, false }
func (noopStore) Delete(int64) (int64, bool)        { return 0, false }
func (noopStore) RangeScan(int64, int64, func(int64, int64) bool) int {
	return 0
}
func (noopStore) Snapshot() dict.IntSnapshotView { return nil }
