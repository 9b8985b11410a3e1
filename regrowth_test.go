package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// regrowthRule forbids code that a deletion removed from growing back: at
// most max lines of the Go files under paths may match pattern.
type regrowthRule struct {
	pattern string
	// paths are files, or directories scanned recursively, relative to the
	// repository root.
	paths []string
	// tests says whether _test.go files are scanned too.
	tests bool
	max   int
}

// regrowthRules holds, for each deletion, the patterns its removed code
// matched. A later deletion adds its own rows.
var regrowthRules = []regrowthRule{
	// One build: epoch reclamation is always compiled in, an SCX descriptor
	// has one owner (whoever holds its slot pinned), and the instrumentation
	// points are switched at run time by internal/sched's one registry.
	{pattern: `noepoch|epoch\.Enabled|claimable|sched\.Enabled|SetChaosHooks|ArmChaos|"repro/internal/chaos"`, paths: []string{"."}, tests: true},
	// The sched tag selects test files only.
	{pattern: `go:build .*sched`, paths: []string{"."}},
	// Figure 8 has one producer and one committed table; the zipf, scan and
	// snapshot workloads are the repository benchmark's.
	{pattern: `func (Figure9|HeadlineRatios|RAVLComparison|ViolationThresholdAblation|Figure8Structures|Figure8Mixes|Figure8Dists)\(|type ScanMode|func NewApplier`, paths: []string{"."}},
	// A controller's worker pins the slot its Go order names: no stack
	// padding, and no goroutine-id lookup on the controller's path.
	{pattern: `func deep\(|growStack\(`, paths: []string{"."}, tests: true},
	{pattern: `goID\(\)`, paths: []string{"internal/sched/controller.go"}},
	// Retirees and argument blocks wait on one stamped per-slot FIFO.
	{pattern: `bucketEpochs|parkedMu|unparkEligible|discardParked|ParkedCount`, paths: []string{"."}},
	// EBST is the unbalanced baseline: no spine diagnostic or mitigation.
	{pattern: `SpineMitigator|mitigateSpine|spineCap|SpineStats|noteDeepSpine`, paths: []string{"."}},
	// A snapshot is one thing, a tree's frozen view.
	{pattern: `SnapshotDiff|AdaptSnapshot|Differ\[|diffWalk|Consistent\(\) bool`, paths: []string{"."}},
	// Keys are cmp.Ordered, with one search loop per structure.
	{pattern: `NewLess|NewGlobalLess|dict\.Less|searchLess|lookupLess|getLess|locateLess|findLess|findPresentLess|searchFn|lookupFn|getFn|locateFn|findFn`, paths: []string{"."}},
	// An update writes nothing tree-global: no per-tree window counter, no
	// second commit hook, no clock advance in the engine's update paths.
	{pattern: `fastWriters|OnInstalled|hooks\.installed`, paths: []string{"."}},
	{pattern: `gver\.Add`, paths: []string{"internal/lbst/lbst.go"}},
	// One fence publishes an SCX: no per-field atomic fill of the
	// descriptor, no atomic tick store in newNode.
	{pattern: `\.v\[i\]\.(rec|info)\.Store`, paths: []string{"internal/llxscx"}, tests: true},
	{pattern: `snapVer\.Store\(`, paths: []string{"internal/lbst/lbst.go"}},
	// One tree engine: no template plumbing beside the chromatic policy,
	// and hot paths stay on the node's direct LLX entry.
	{pattern: `sync\.Pool|llxscx\.SCXP|vcell\.NewPool|BeginPublish`, paths: []string{"internal/chromatic"}},
	{pattern: `llxscx\.LLX\(`, paths: []string{"internal/lbst", "internal/chromatic", "internal/ravl", "internal/ebst"}},
	// Each rebalancing step is written once, over a side, and runs through
	// lbst.Step.
	{pattern: `func \(p(ol)? \*policy\[K, V\]\) (do[A-Z0-9]+s|overweight(Left|Right)|fix(Left|Right))\(`, paths: []string{"internal/chromatic", "internal/ravl"}, tests: true},
	{pattern: `RebalanceSCX\(|ReleaseFresh\(`, paths: []string{"."}},
	// The ordered point queries are one body over a side, and a committed
	// step is counted by the Step that committed it.
	{pattern: `func \(t \*Tree\[K, V\]\) (successor|predecessor|min|max)\(`, paths: []string{"internal/lbst"}, tests: true},
	{pattern: `func counted\(|\) Counted\(`, paths: []string{"."}, max: 1},
	// An update has one retry loop and no per-operation budget.
	{pattern: `dict\.Budget|BoundedMap|InsertBounded|DeleteBounded|ErrRetryBudget|ErrDeadline\b`, paths: []string{"."}, tests: true},
	// A tree reuses its nodes and value cells through its per-slot free
	// lists alone: no sync.Pool, no cell pool.
	{pattern: `sync\.Pool|vcell\.NewPool|nodePool`, paths: []string{"internal/lbst", "internal/vcell"}, tests: true},
	// The baseline trees write each mirror image once, over a side; a
	// structure's name lives in the registry alone, and its type is spelled
	// with its parameters.
	{pattern: `\b(rotateLeft|rotateRight|leftOf|rightOf|structuralSuccessor|structuralPredecessor|IntTree|IntGlobal|IntList)\b|dict\.Named\b`, paths: []string{"."}, tests: true},
	// One generic dictionary surface: each suite and each structure has one
	// entry point, and the int64 instantiation is a type argument.
	{pattern: `dicttest\.Target\b|dict\.Int(OrderedMap|Factory)\b|NewChromatic6|NewGlobal\(\)|(skiplist|lockavl|stmrbt|stmskip)\.New\(\)`, paths: []string{"."}, tests: true},
	// A live range scan walks one versioned cut, not VLX-validated chunks,
	// and a snapshot capture writes no process-wide pin counter.
	{pattern: `chunkLeaves|chunkEvCap|ScanStats|snapCount`, paths: []string{"."}, tests: true},
	// The ordered point queries read a versioned cut too: no LLX read path,
	// no evidence-only LLX and no VLX over a reader's path.
	{pattern: `VLXEvidence|Snap2|SkipNeighborVLX|llxscx\.Evidence`, paths: []string{"."}, tests: true},
	// Concurrent correctness is checked on shared keys through one recorded
	// stress: no disjoint-writer suite, and no per-goroutine last-writer
	// model beside it. The packages' own TestConcurrentStress run that one
	// stress.
	{pattern: `dicttest\.ConcurrentStress\b|func ConcurrentStress\b|HistoriesLinearizable|SurviveConcurrentMixedWorkload|PerKeyLastWriter`, paths: []string{"."}, tests: true},
	// The epoch slots in use are one high-water mark: no bitmask of the
	// slots or snap slots ever claimed, and no per-guard used flag.
	{pattern: `usedSlots|snapUsed|\bused\s+bool|\.used\b`, paths: []string{"internal/epoch"}, tests: true},
	// A stalled pin is evicted by the retires behind it: no watchdog
	// goroutine to start or stop, and no record of an evicted slot's epoch
	// to restore.
	{pattern: `StartWatchdog|type Watchdog|evictedSlot`, paths: []string{"."}, tests: true},
	// Concurrent workloads run through the dicttest suites: a hot key, a
	// churned window and a package's contended keys are key counts of the
	// recorded shared-key stress, and stable-key readers are one suite.
	{pattern: `func (HotKeyStress|ChurnStress)\b|func TestConcurrentContention\b|func TestConcurrentReadersSeeStableEvenKeys\b`, paths: []string{"."}, tests: true},
}

// TestRegrowthGuard checks every regrowthRules row against the module's Go
// files. Directories whose names start with a dot hold no source and are
// skipped, as is this file, which spells every pattern out.
func TestRegrowthGuard(t *testing.T) {
	const self = "regrowth_test.go"
	src := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || path == self {
			return nil
		}
		b, err := os.ReadFile(path)
		src[filepath.ToSlash(path)] = strings.Split(string(b), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regrowthRules {
		re := regexp.MustCompile(r.pattern)
		var hits []string
		for path, lines := range src {
			if !r.tests && strings.HasSuffix(path, "_test.go") || !under(path, r.paths) {
				continue
			}
			for i, line := range lines {
				if re.MatchString(line) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
		if len(hits) > r.max {
			sort.Strings(hits)
			t.Errorf("%d lines match %q (at most %d allowed):\n\t%s", len(hits), r.pattern, r.max, strings.Join(hits, "\n\t"))
		}
	}
}

// under reports whether path is one of paths or lies below one of them.
func under(path string, paths []string) bool {
	for _, p := range paths {
		if p == "." || path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
