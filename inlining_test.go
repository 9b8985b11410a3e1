package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inliningRule requires that the functions matching fn, as compiled into
// the archive of package pkg (the package that instantiates the engine's
// generic code), make no call to a symbol matching callees: the compiler
// inlined every such call. At least one function must match fn.
type inliningRule struct {
	pkg     string // import path below the module root
	fn      string
	callees string
}

// shape is the instantiation every int64-keyed, int64-valued structure of
// the registry compiles the engine's generic code to.
const shape = `\[go\.shape\.int64,go\.shape\.int64\]`

// cutCallees are the helpers every read of a versioned cut makes per node.
const cutCallees = `lbst\.resolve\[|lbst\.valueOf\[|lbst\.\(\*Node\[[^]]*\]\)\.ver$|vcell\.\(\*Cell\[[^]]*\]\)\.Load$|sched\.Point$`

// inliningRules holds the calls the hot paths rely on being inlined. A
// change that pushes one over the compiler's budget (a statement added to
// lbst's valueOf is enough) turns it into a call and fails the row.
var inliningRules = []inliningRule{
	// The versioned walk behind every range scan, and the point query's
	// descents: child resolution, the node's tick, the leaf's value load and
	// the walk's schedule point stay inside them.
	{
		pkg:     "internal/chromatic",
		fn:      `lbst\.\(\*Snap` + shape + `\)\.walk$`,
		callees: cutCallees,
	},
	{
		pkg:     "internal/chromatic",
		fn:      `lbst\.\(\*Snap` + shape + `\)\.neighbor$`,
		callees: cutCallees,
	},
	// The key comparison of the searches and the epoch unpin of every
	// operation, anywhere in the chromatic instantiation of the engine.
	{pkg: "internal/chromatic", fn: `.`, callees: `lbst\.keyLess\[|epoch\.Unpin$`},
	// sched.Point's arming check inlines into the overwrite's publish and
	// the SCX commit hook wherever the engine is instantiated (see lbst's
	// walkPoint), not only in packages that import internal/sched.
	{pkg: "internal/chromatic", fn: `lbst\.tryPublish` + shape + `$|lbst\.NewOrdered` + shape + `\.func2$`, callees: `sched\.Point$`},
	{pkg: "internal/ebst", fn: `lbst\.tryPublish` + shape + `$|lbst\.NewOrdered` + shape + `\.func2$`, callees: `sched\.Point$`},
	{pkg: "internal/ravl", fn: `lbst\.tryPublish` + shape + `$|lbst\.NewOrdered` + shape + `\.func2$`, callees: `sched\.Point$`},
}

// TestInliningGuard checks every inliningRules row against the disassembly
// of the engine's functions (internal/lbst's, which is where every row's
// function is from) in a plain build of its package, the build the
// benchmark runs.
func TestInliningGuard(t *testing.T) {
	dir := t.TempDir()
	calls := map[string]map[string][]string{} // pkg -> function -> callees
	for _, r := range inliningRules {
		if calls[r.pkg] != nil {
			continue
		}
		archive := filepath.Join(dir, strings.ReplaceAll(r.pkg, "/", "_")+".a")
		if out, err := exec.Command("go", "build", "-o", archive, "./"+r.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", r.pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "objdump", "-s", `^repro/internal/lbst\.`, archive).Output()
		if err != nil {
			t.Fatalf("go tool objdump %s: %v", archive, err)
		}
		calls[r.pkg] = callGraph(out)
	}
	for _, r := range inliningRules {
		fn, callee := regexp.MustCompile(r.fn), regexp.MustCompile(r.callees)
		matched := 0
		var bad []string
		for f, cs := range calls[r.pkg] {
			if !fn.MatchString(f) {
				continue
			}
			matched++
			for _, c := range cs {
				if callee.MatchString(c) {
					bad = append(bad, fmt.Sprintf("%s calls %s", f, c))
				}
			}
		}
		if matched == 0 {
			t.Errorf("%s: no function matches %q", r.pkg, r.fn)
		}
		if len(bad) > 0 {
			t.Errorf("%s: calls matching %q are not inlined:\n\t%s", r.pkg, r.callees, strings.Join(bad, "\n\t"))
		}
	}
}

// callGraph maps each function of an objdump listing to the symbols it
// calls directly.
func callGraph(objdump []byte) map[string][]string {
	g := map[string][]string{}
	var fn string
	sc := bufio.NewScanner(bytes.NewReader(objdump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(sym, "(SB)")
			g[fn] = g[fn][:0:0]
			continue
		}
		if _, c, ok := strings.Cut(line, "R_CALL:"); ok && fn != "" {
			g[fn] = append(g[fn], strings.Fields(c)[0])
		}
	}
	return g
}
