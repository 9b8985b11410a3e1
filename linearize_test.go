package repro

// Recorded-history linearizability checks over every structure in the
// benchmark registry (internal/linearize). Real goroutines run a mixed
// workload through a linearize.Recorder and the Wing&Gong checker then
// searches the recorded history for a linearization against the sequential
// map specification.
//
// Two workload shapes:
//
//   - Disjoint-writer histories: each goroutine updates its own key range
//     while every goroutine reads and scans the whole space. Every structure
//     must produce strictly linearizable histories here — this is the
//     acceptance bar, for int64 and string keys alike.
//
//   - Hot-key overwrite/delete contention: all goroutines hammer one key
//     with in-place overwrites, deletes and reads. The SCX-free overwrite
//     protocol's publish bracket (see internal/vcell and DESIGN.md) makes
//     this strictly linearizable too — an earlier revision of the protocol
//     had a documented overwrite-vs-delete anomaly here — so the test
//     demands a clean history plus the published-values guarantee (every
//     observed value was published by some writer).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/linearize"
)

// lcg advances a deterministic pseudo-random stream (same generator as the
// dicttest suite).
func lcg(state *uint64) uint64 {
	*state = *state*2862933555777941757 + 3037000493
	return *state >> 11
}

// TestRecordedHistoriesLinearizable runs the disjoint-writer workload over
// every concurrency-safe int64 structure in the registry and requires a
// strictly linearizable history from each.
func TestRecordedHistoriesLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, target := range concurrentTargets[int64, int64]() {
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
			rec := linearize.NewRecorder(target.New())

			const procs = 4
			const opsPerProc = 400
			const keysPerProc = 32
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				p := rec.Proc()
				base := int64(g) * 100
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					state := uint64(g)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < opsPerProc; i++ {
						r := lcg(&state)
						own := base + int64(r%keysPerProc)
						any := int64(lcg(&state) % (procs * 100)) // any proc's range
						switch {
						case r%100 < 40:
							p.Insert(own, int64(g*opsPerProc+i))
						case r%100 < 60:
							p.Delete(own)
						case r%100 < 90:
							p.Get(any)
						default:
							lo := any - 10
							p.Scan(lo, lo+20)
						}
					}
				}(g)
			}
			wg.Wait()

			h := rec.History()
			if len(h.Ops) < procs*opsPerProc {
				t.Fatalf("recorded %d ops, want at least %d", len(h.Ops), procs*opsPerProc)
			}
			if res := linearize.Check(h); !res.OK() {
				t.Fatalf("history not linearizable:\n%s", res.Report())
			}
		})
	}
}

// TestRecordedStringHistoriesLinearizable is the same acceptance bar for the
// string-keyed instantiations: the checker and recorder are generic, and no
// part of the stack may assume integer keys.
func TestRecordedStringHistoriesLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, target := range concurrentTargets[string, string]() {
		t.Run(target.Name+"/string", func(t *testing.T) {
			t.Parallel()
			rec := linearize.NewRecorder(target.New())

			const procs = 4
			const opsPerProc = 300
			const keysPerProc = 24
			key := func(g, i int) string { return fmt.Sprintf("p%d-k%02d", g, i) }
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				p := rec.Proc()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					state := uint64(g)*0x9e3779b97f4a7c15 + 7
					for i := 0; i < opsPerProc; i++ {
						r := lcg(&state)
						own := key(g, int(r%keysPerProc))
						other := key(int(lcg(&state))%procs, int(lcg(&state)%keysPerProc))
						switch {
						case r%100 < 40:
							p.Insert(own, fmt.Sprintf("v%d-%d", g, i))
						case r%100 < 60:
							p.Delete(own)
						case r%100 < 90:
							p.Get(other)
						default:
							// Scan one proc's whole prefix range.
							gp := int(lcg(&state)) % procs
							p.Scan(key(gp, 0), key(gp, keysPerProc-1))
						}
					}
				}(g)
			}
			wg.Wait()

			if res := linearize.Check(rec.History()); !res.OK() {
				t.Fatalf("history not linearizable:\n%s", res.Report())
			}
		})
	}
}

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
