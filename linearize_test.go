package repro

// Recorded-history linearizability checks over every structure in the
// benchmark registry (internal/linearize). Real goroutines run a workload
// through a linearize.Recorder and the Wing&Gong checker then searches the
// recorded history for a linearization against the sequential map
// specification.
//
// The acceptance bar for every structure, with int64 and string keys, is
// TestSharedKeyStress (conformance_test.go): writers share sixteen keys, so
// a lost update has somewhere to show. This file holds the hot-key shape:
// all goroutines hammer one key with in-place overwrites, deletes and reads.
// The SCX-free overwrite protocol's publish bracket (see internal/vcell and
// DESIGN.md) makes this strictly linearizable too — an earlier revision of
// the protocol had a documented overwrite-vs-delete anomaly here — so the
// test demands a clean history plus the published-values guarantee (every
// observed value was published by some writer).

import (
	"sync"
	"testing"

	"repro/internal/linearize"
)

// TestHotKeyOverwriteDeleteHistory hammers one key with overwrites, deletes
// and reads on every structure. This workload used to tolerate a documented
// overwrite-vs-delete anomaly in the vcell-overwrite structures; the publish
// bracket (internal/vcell) closed that window, so strict linearizability is
// now demanded unconditionally, alongside the published-values guarantee.
func TestHotKeyOverwriteDeleteHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const hot = int64(100)
	for _, target := range concurrentTargets[int64, int64]() {
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
			rec := linearize.NewRecorder(target.New())

			setup := rec.Proc()
			setup.Insert(hot, 1)

			const opsPerProc = 200
			published := map[int64]bool{1: true}
			var wg sync.WaitGroup
			// Two overwriters with globally unique values.
			for g := 0; g < 2; g++ {
				p := rec.Proc()
				for i := 0; i < opsPerProc; i++ {
					published[int64((g+1)*1_000_000+i)] = true
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < opsPerProc; i++ {
						p.Insert(hot, int64((g+1)*1_000_000+i))
					}
				}(g)
			}
			// One deleter alternating remove/reinstate.
			del := rec.Proc()
			for i := 0; i < opsPerProc/2; i++ {
				published[int64(9_000_000+i)] = true
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPerProc/2; i++ {
					del.Delete(hot)
					del.Insert(hot, int64(9_000_000+i))
				}
			}()
			// One reader.
			rd := rec.Proc()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPerProc; i++ {
					rd.Get(hot)
				}
			}()
			wg.Wait()

			h := rec.History()
			// Unconditional guarantee: every observed value was published by
			// some writer (values are never invented or corrupted).
			for _, op := range h.Ops {
				if op.OutOK && !published[op.Out] {
					t.Fatalf("%v observed value %d that no writer ever published", op.Kind, op.Out)
				}
			}

			if res := linearize.Check(h); !res.OK() {
				t.Fatalf("hot-key history not linearizable:\n%s", res.Report())
			}
		})
	}
}
