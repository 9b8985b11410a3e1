// Package repro is a from-scratch Go reproduction of Brown, Ellen and
// Ruppert, "A General Technique for Non-blocking Trees" (PPoPP 2014).
//
// The implementation lives under internal/: the LLX/SCX/VLX primitives
// (internal/llxscx), the shared leaf-oriented BST engine built on the
// paper's tree update template (internal/lbst) with its three balancing
// policies - the unbalanced BST (internal/ebst), the relaxed AVL tree
// (internal/ravl) and the paper's non-blocking chromatic tree
// (internal/chromatic: the rebalancing steps, each written once over a side,
// and the weight rules, nothing else) - the epoch-based reclamation layer
// they share (internal/epoch), and every data structure the paper's evaluation
// compares against, plus the workload generator and throughput harness that
// regenerate the paper's figures. The dictionary stack is generic end to
// end: dict.Map[K, V] / dict.OrderedMap[K, V] are the canonical interfaces,
// and every structure - the LLX/SCX trees and the five baselines (lock-free
// skip list, lock-based AVL, STM red-black tree and skip list, sequential
// red-black tree) alike - takes cmp.Ordered keys ordered by cmp.Less (NaN
// first). The historical int64 instantiations survive as the dict.IntMap /
// dict.IntOrderedMap / dict.IntFactory aliases the benchmark registry uses,
// and every registered structure is an ordered map, so one
// conformance/fuzz/stress suite and one Figure-8 grid cover them all.
//
// The update hot path is allocation-lean, going one step past the compact
// SCX records of the paper's Java implementation: an SCX-record stores its
// evidence in inline arrays bounded by llxscx.MaxV (6, the chromatic W3/W4
// steps) and is not allocated per SCX - every epoch slot owns one
// sequence-tagged descriptor, and its operation's SCXs rewrite argument
// blocks the slot replaced two epochs before and publish each with one
// pointer store (Arbel-Raviv and Brown's "Reuse, don't recycle"); updates
// stage their V/R
// sequences in stack arrays for the SCXFixed/SCXP/VLXFixed entry points;
// inserts reuse the old leaf as a child of the fresh internal node where the
// template's postconditions allow (values stored into child fields must
// stay freshly allocated, so deletes still promote a copy, and a leaf whose
// weight an insertion changes is copied too); and the search compares keys
// with cmp.Less inline. Overwriting a present key's value needs no SCX at
// all: leaf values live in atomically published cells (internal/vcell,
// unboxed single-word storage for word-sized value types) that sit outside
// the LLX snapshot evidence and are aliased by every copy of a leaf, so
// Insert-on-present is one atomic publish plus a finalization re-check -
// zero allocations for the int64 registry, on the trees and the
// skip-list/lock-AVL baselines alike.
// The trees keep the cells outside their nodes: a node is one 64-byte cache
// line (the policy's decoration - a weight or a height - and the
// leaf/sentinel flags packed into the four spare bytes of its llxscx.Record), a cell is 32 bytes from a per-tree
// pool, and a cell counts the nodes aliasing it so that it returns to the
// pool when the last of them has been freed.
// Node reclamation is manual: internal/epoch implements quiescent-state-based
// reclamation (every operation pins an epoch slot on entry; retired memory
// is freed two epoch advances later, once no pinned operation can still
// reach it), and the trees recycle their nodes and value cells through
// sync.Pool-backed freelists layered on that grace period - the ABA-freedom
// the paper gets
// from its Java runtime's garbage collector is re-derived for manual
// reclamation and descriptor reuse in DESIGN.md. Steady-state updates
// (delete + re-insert) run at zero allocations per operation; build with
// -tags reclaimcheck to poison recycled nodes and cells with generation
// checks. BenchmarkAlloc,
// TestChromaticAllocBudget, TestChromaticChurnAllocBudget,
// TestOverwriteAllocBudget and TestReclaimNoLeak (alloc_bench_test.go) pin
// the resulting allocation profile in CI, and TestNoParkedDescriptors
// (internal/chromatic) the footprint: a tree's live heap is two nodes and a
// cell per key, 160 bytes for the int64 registry.
//
// The LLX/SCX trees additionally serve O(1) versioned snapshots
// (dict.Snapshotter): every committed SCX stamps the subtree root it
// installs with the tree's version clock and links the displaced version,
// Snapshot advances the clock and captures (entry, tick) in constant time
// behind a long-lived epoch pin, and the returned frozen view answers
// Get/RangeScan/Ascend by rewinding newer nodes through their version chains
// - no validation, no retries, no CASes on the read path. The capture
// protocol (stamp and install inside a publish window on an epoch slot,
// advance-the-clock-then-drain) is exhaustively schedule-enumerated
// (sched_snapshot_test.go, selected by -tags sched) and argued in DESIGN.md
// ("Versioned snapshots").
//
// The live scans (RangeScan, Ascend) of those trees are the paper's
// Section 5.5 recipe applied to a subtree at a time: one in-order walk that
// LLXs every internal node under the remaining range, one VLX over all of
// it per chunk of up to 64 keys, values loaded and the callback run only
// after the validation. A chunk is the range's content at one instant; a
// scan of several chunks is not atomic as a whole, which (with repeated
// reads of one cut) is what snapshots remain for.
// The point queries (Successor, Predecessor, Min, Max) are the same recipe
// applied to a path, written once over a side (lbst's neighbor): Min and Max
// are the query for an infinite key, and a leaf the search reaches on the
// asked-for side is returned without a VLX.
//
// cmd/chromatic-bench runs the paper's Figure 8 grid (its three uniform
// operation mixes) and the height experiment; README.md holds one committed
// run. The zipfian (hot-key), scan-heavy and snapshot-scan workloads are the
// repository benchmark's (benchmark/).
//
// The root package only hosts the repository-level benchmarks
// (bench_test.go, alloc_bench_test.go) and the cross-implementation
// conformance, fuzz and stress suites (integration_test.go,
// conformance_test.go); see README.md and DESIGN.md for the full map.
package repro
