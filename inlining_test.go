package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// inliningRule requires that the functions matching fn, as compiled into
// the archive of package pkg (the package that instantiates the generic
// code), make no call to a symbol matching callees: the compiler
// inlined every such call. A row that sets needs instead requires each of
// them to contain an instruction matching it, and one that sets forbids
// requires that none of their instructions match it. At least one function
// must match fn.
type inliningRule struct {
	pkg     string // import path below the module root
	fn      string
	callees string
	needs   string
	forbids string
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
	// The search descent picks the chosen child's flags with a CMOV, which
	// keeps both children's flag loads ahead of the comparison's branch. If
	// the select becomes a branch, the compiler sinks each load into its arm
	// and the descent requests one child's line per level again (lbst's
	// search says more).
	{pkg: "internal/chromatic", fn: searchFn, needs: `^CMOV`},
	{pkg: "internal/ebst", fn: searchFn, needs: `^CMOV`},
	{pkg: "internal/ravl", fn: searchFn, needs: `^CMOV`},
	// SkipList's Get, in the registry's instantiation: the node's value load
	// stays inside Get, and the walk's key comparisons and link loads inside
	// findPresent.
	{
		pkg:     "internal/bench",
		fn:      `skiplist\.\(\*List` + shape + `\)\.Get$`,
		callees: `skiplist\.\(\*node\[[^]]*\]\)\.value$|vcell\.\(\*Cell\[[^]]*\]\)\.Load$`,
	},
	{
		pkg:     "internal/bench",
		fn:      `skiplist\.\(\*List` + shape + `\)\.findPresent$`,
		callees: `^repro/|^cmp\.|^sync/atomic\.`,
	},
	// A cell's Load unpacks its word written out, not through fromWord. The
	// call once pushed lbst's valueOf over the inliner's budget, and inlined
	// it still leaves a nil check of fromWord's dictionary in every Load.
	{pkg: "internal/bench", fn: `vcell\.\(\*Cell\[go\.shape\.int64\]\)\.Load$`, forbids: `^TESTB AL, 0\(`},
}

// searchFn is the engine's leaf-oriented search at the shape instantiation.
const searchFn = `lbst\.\(\*Tree` + shape + `\)\.search$`

// TestInliningGuard checks every inliningRules row against the disassembly
// of the generic functions its rows name, from internal/lbst, skiplist and
// vcell, in a plain build of its package, the build the benchmark runs.
func TestInliningGuard(t *testing.T) {
	dir := t.TempDir()
	code := map[string]map[string]*funcCode{} // pkg -> function -> its code
	for _, r := range inliningRules {
		if code[r.pkg] != nil {
			continue
		}
		archive := filepath.Join(dir, strings.ReplaceAll(r.pkg, "/", "_")+".a")
		if out, err := exec.Command("go", "build", "-o", archive, "./"+r.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", r.pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "objdump", "-s", `^repro/internal/(lbst|skiplist|vcell)\.`, archive).Output()
		if err != nil {
			t.Fatalf("go tool objdump %s: %v", archive, err)
		}
		code[r.pkg] = disassembly(out)
	}
	for _, r := range inliningRules {
		fn, callee, needs := regexp.MustCompile(r.fn), regexp.MustCompile(r.callees), regexp.MustCompile(r.needs)
		forbids := regexp.MustCompile(r.forbids)
		matched := 0
		var bad, missing, forbidden []string
		for f, c := range code[r.pkg] {
			if !fn.MatchString(f) {
				continue
			}
			matched++
			for _, cs := range c.calls {
				if r.callees != "" && callee.MatchString(cs) {
					bad = append(bad, fmt.Sprintf("%s calls %s", f, cs))
				}
			}
			if r.needs != "" && !slices.ContainsFunc(c.instrs, needs.MatchString) {
				missing = append(missing, f)
			}
			if r.forbids != "" && slices.ContainsFunc(c.instrs, forbids.MatchString) {
				forbidden = append(forbidden, f)
			}
		}
		if matched == 0 {
			t.Errorf("%s: no function matches %q", r.pkg, r.fn)
		}
		if len(bad) > 0 {
			t.Errorf("%s: calls matching %q are not inlined:\n\t%s", r.pkg, r.callees, strings.Join(bad, "\n\t"))
		}
		if len(missing) > 0 {
			t.Errorf("%s: no instruction matches %q in:\n\t%s", r.pkg, r.needs, strings.Join(missing, "\n\t"))
		}
		if len(forbidden) > 0 {
			t.Errorf("%s: an instruction matches %q in:\n\t%s", r.pkg, r.forbids, strings.Join(forbidden, "\n\t"))
		}
	}
}

// funcCode is one function of an objdump listing: the symbols it calls
// directly and the text of its instructions.
type funcCode struct {
	calls, instrs []string
}

// disassembly maps each function of an objdump listing to its code.
func disassembly(objdump []byte) map[string]*funcCode {
	g := map[string]*funcCode{}
	var fn *funcCode
	sc := bufio.NewScanner(bytes.NewReader(objdump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			name, _, _ := strings.Cut(sym, "(SB)")
			fn = &funcCode{}
			g[name] = fn
			continue
		}
		if fn == nil {
			continue
		}
		// An instruction line is "file:line, address, encoding, text" and, in
		// an archive, the relocations, separated by runs of tabs.
		if f := strings.FieldsFunc(line, func(r rune) bool { return r == '\t' }); len(f) >= 4 {
			fn.instrs = append(fn.instrs, f[3])
		}
		if _, c, ok := strings.Cut(line, "R_CALL:"); ok {
			fn.calls = append(fn.calls, strings.Fields(c)[0])
		}
	}
	return g
}
