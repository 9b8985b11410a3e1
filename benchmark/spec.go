package main

import (
	"time"

	"repro/internal/workload"
)

// Run shape. These are constants of the benchmark, the same on every commit
// it measures; the only inputs are -workload, -seed, -seconds and -trace.
const (
	// numWorkers is fixed at this box's CPU count: the callers are goroutines
	// of one process that each wait for their reply, so the load is a closed
	// loop, and more workers than CPUs would measure the Go scheduler.
	numWorkers = 2
	// windowLen is one measurement window; a run of -seconds S has 4S of
	// them and a metric is their best decile (bestDecile in hist.go).
	windowLen = 250 * time.Millisecond
	warmupLen = time.Second
	// sampleEvery: latency is sampled on every 32nd operation of a worker, so
	// the two clock reads (host.timer_ns) cost under 2 % of a 100 ns Get.
	sampleEvery = 32
	scanSpan    = workload.DefaultScanSpan
	// prefillTolerance: Prefill stops within 1 % of the mix's steady-state
	// size, so the size does not drift through the windows (at 5 %, mixed-1m
	// would still be growing for several seconds).
	prefillTolerance = 0.01
	// probeOps is the length of the quiescent probe (see probe in run.go).
	probeOps = 1 << 17
	// spanRing is how many of a worker's last spans a traced run keeps.
	spanRing = 1 << 17
)

// spec is one workload. Structure names are bench.Registry names.
type spec struct {
	Name      string
	Structure string
	Mix       workload.Mix
	Dist      workload.Dist
	KeyRange  int64
	// SetupReps is how many times an untraced run builds and prefills the
	// structure; setup_s is the median.
	SetupReps int
	Why       string
}

var specs = []spec{
	{
		Name: "get-10k", Structure: "Chromatic", Mix: workload.Mix0i0d, KeyRange: 10_000, SetupReps: 31,
		Why: "read-only: only search descent, epoch pin/unpin and vcell.Load run; the bypass workload for every update-path change",
	},
	{
		Name: "update-10k", Structure: "Chromatic", Mix: workload.Mix50i50d, KeyRange: 10_000, SetupReps: 31,
		Why: "50i-50d: half the ops are SCX updates with rebalancing to zero violations, so llxscx, pools and epoch retire do most of the work",
	},
	{
		Name: "mixed-1m", Structure: "Chromatic6", Mix: workload.Mix20i10d, KeyRange: 1_000_000, SetupReps: 2,
		Why: "the paper's headline 20i-10d mix on Chromatic6 with a working set far beyond cache: descent depth and node layout dominate",
	},
	{
		Name: "overwrite-zipf-10k", Structure: "Chromatic", Mix: workload.Mix{InsertPct: 45, DeletePct: 5}, Dist: workload.DistZipf, KeyRange: 10_000, SetupReps: 15,
		Why: "zipf 45i-5d: most inserts overwrite a present key through the vcell publish bracket with no SCX, contended on the hot key",
	},
	{
		Name: "scan-10k", Structure: "Chromatic", Mix: workload.Mix5i5d50s, KeyRange: 10_000, SetupReps: 31,
		Why: "5i-5d-50s: VLX-validated live range scans alternate with snapshot scans, both racing 10% updates; uses the read layer differently",
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// probeMix is the operation mix of the quiescent probe: every class gets
// thousands of samples within probeOps operations whatever the key
// distribution.
var probeMix = workload.Mix{InsertPct: 25, DeletePct: 25, ScanPct: 30}

// metricDecl declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen; a
// per-layer metric has none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the dictionary sees. Every metric is reported
// on every workload; a latency class with under 10 % of a workload's
// operations is read from the quiescent probe (README, "Adapting to the
// run contract"). Failed operations are carried by the result's attempted
// and failed counts, not by a metric, because a metric may never read 0.
var endToEnd = []metricDecl{
	{"throughput_ops_s", "ops/s", higher, 0.25},
	{"get_p50_ns", "ns", lower, 0.25},
	{"upd_p50_ns", "ns", lower, 0.25},
	{"ovw_p50_ns", "ns", lower, 0.25},
	{"scan_p50_ns", "ns", lower, 0.25},
	{"snapscan_p50_ns", "ns", lower, 0.25},
	{"heap_bytes_per_key", "bytes", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists the layer microbenchmarks (layers.go), then the per-workload
// counters read through public APIs around the untraced windows, then the
// traced windows' attribution (run.go).
var perLayer = []metricDecl{
	{"workload.next_uniform_ns", "ns", lower, 0},
	{"workload.next_zipf_ns", "ns", lower, 0},
	{"dict.noop_loop_ns", "ns", lower, 0},
	{"host.timer_ns", "ns", lower, 0},
	{"host.calib_ns", "ns", lower, 0},
	{"epoch.pin_unpin_ns", "ns", lower, 0},
	{"epoch.pin_unpin_2t_ns", "ns", lower, 0},
	{"epoch.pin_retire_unpin_ns", "ns", lower, 0},
	{"epoch.snap_pin_release_ns", "ns", lower, 0},
	{"llxscx.llx_ns", "ns", lower, 0},
	{"llxscx.vlx_fixed_3_ns", "ns", lower, 0},
	{"llxscx.scx_fixed_v2_ns", "ns", lower, 0},
	{"llxscx.scx_fixed_v4_ns", "ns", lower, 0},
	{"llxscx.scxp_v2_ns", "ns", lower, 0},
	{"llxscx.scx_fixed_v2_allocs", "allocs/op", lower, 0},
	{"llxscx.scxp_v2_allocs", "allocs/op", lower, 0},
	{"llxscx.scx_2t_success_frac", "frac", higher, 0},
	{"vcell.load_ns", "ns", lower, 0},
	{"vcell.swap_ns", "ns", lower, 0},
	{"vcell.publish_bracket_ns", "ns", lower, 0},
	{"vcell.publish_bracket_2t_ns", "ns", lower, 0},
	{"vcell.drain_idle_ns", "ns", lower, 0},
	{"chromatic.get_1e2_ns", "ns", lower, 0},
	{"chromatic.get_1e4_ns", "ns", lower, 0},
	{"chromatic.get_1e6_ns", "ns", lower, 0},
	{"chromatic.insdel_1e4_ns", "ns", lower, 0},
	{"chromatic.insdel_1e4_allocs", "allocs/op", lower, 0},
	{"chromatic.overwrite_1e4_ns", "ns", lower, 0},
	{"chromatic.successor_1e4_ns", "ns", lower, 0},
	{"chromatic.scan100_1e4_ns", "ns", lower, 0},
	{"chromatic.snapshot_capture_release_ns", "ns", lower, 0},
	{"chromatic.snap_scan100_1e4_ns", "ns", lower, 0},
	{"chromatic.snap_get_1e4_ns", "ns", lower, 0},
	{"chromatic.rebalance_per_update", "steps/upd", lower, 0},
	{"chromatic.height_1e4", "count", lower, 0},
	{"lbst.ravl_get_1e4_ns", "ns", lower, 0},
	{"lbst.ravl_insdel_1e4_ns", "ns", lower, 0},
	{"lbst.ravl_overwrite_1e4_ns", "ns", lower, 0},
	{"lbst.ravl_scan100_1e4_ns", "ns", lower, 0},
	{"lbst.ravl_snap_scan100_1e4_ns", "ns", lower, 0},
	{"lbst.ravl_rebalance_per_update", "steps/upd", lower, 0},
	{"lbst.ebst_get_1e4_ns", "ns", lower, 0},
	{"lbst.ebst_insdel_1e4_ns", "ns", lower, 0},

	{"chromatic.rebalance_per_upd", "steps/upd", lower, 0},
	{"chromatic.rebalance_fail_frac", "frac", lower, 0},
	{"chromatic.height_end", "count", lower, 0},
	{"chromatic.violations_end", "count", lower, 0},
	{"epoch.advance_fails_per_mop", "1/Mop", lower, 0},
	{"epoch.refusals_per_mop", "1/Mop", lower, 0},
	{"epoch.pending_end", "count", lower, 0},
	{"epoch.degraded_drops", "count", lower, 0},
	{"runtime.allocs_per_op", "allocs/op", lower, 0},
	{"runtime.bytes_per_op", "bytes/op", lower, 0},
	{"runtime.heap_end_bytes_per_key", "bytes", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},
	{"host.steal_frac", "frac", lower, 0},
	{"host.window_spread_frac", "frac", lower, 0},
	{"host.search_ns", "ns", lower, 0},

	{"get_p99_ns", "ns", lower, 0},
	{"upd_p99_ns", "ns", lower, 0},
	{"scan_p99_ns", "ns", lower, 0},
	{"snapscan_p99_ns", "ns", lower, 0},

	{"dict.get_busy_frac", "frac", lower, 0},
	{"dict.upd_busy_frac", "frac", lower, 0},
	{"dict.ovw_busy_frac", "frac", lower, 0},
	{"dict.miss_busy_frac", "frac", lower, 0},
	{"dict.scan_busy_frac", "frac", lower, 0},
	{"dict.snapscan_busy_frac", "frac", lower, 0},
	{"bench.loop_busy_frac", "frac", lower, 0},
	{"bench.trace_overhead_frac", "frac", lower, 0},
	{"lbst.snap_capture_ns", "ns", lower, 0},
	{"lbst.snap_walk_ns", "ns", lower, 0},
	{"epoch.snap_release_ns", "ns", lower, 0},
}
