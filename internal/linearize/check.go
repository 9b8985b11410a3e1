package linearize

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// register is the sequential state of a single key: the model every per-key
// subhistory is checked against (the per-key projection of the sequential
// map semantics; see the package comment for the compositionality argument
// and the seqrbt cross-validation).
type register[V comparable] struct {
	present bool
	val     V
}

// step applies op to the state. It returns the successor state and whether
// the op's recorded output is what the sequential specification produces
// from st.
func step[K cmp.Ordered, V comparable](st register[V], op Op[K, V]) (register[V], bool) {
	switch op.Kind {
	case KindGet:
		return st, outputOK(st, op.Out, op.OutOK)
	case KindScanStep:
		// A scan step asserts the pair was current at its linearization
		// point: key present, value as observed.
		return st, st.present && op.Out == st.val
	case KindInsert:
		if !outputOK(st, op.Out, op.OutOK) {
			return st, false
		}
		return register[V]{present: true, val: op.Val}, true
	case KindDelete:
		if !outputOK(st, op.Out, op.OutOK) {
			return st, false
		}
		return register[V]{}, true
	default:
		return st, false
	}
}

// outputOK checks a (value, present) result against the state: present keys
// return their value, absent keys return (zero, false) — the dict contract.
func outputOK[V comparable](st register[V], out V, ok bool) bool {
	if ok != st.present {
		return false
	}
	if st.present {
		return out == st.val
	}
	var zero V
	return out == zero
}

// expect describes the output the specification requires from st, for
// counterexample reports.
func expect[V comparable](st register[V], kind Kind) string {
	switch kind {
	case KindScanStep:
		if !st.present {
			return "key absent: a scan step must observe a present pair"
		}
		return fmt.Sprintf("value %v (the current value)", st.val)
	default:
		if !st.present {
			return "(zero, false): key absent"
		}
		return fmt.Sprintf("(%v, true): key present", st.val)
	}
}

// Counterexample is one non-linearizable per-key subhistory, minimized and
// formatted for humans, or one scan step out of its scan's range or order:
// then Ops holds the step, after the step its scan emitted before it if
// there is one, and Best is empty.
type Counterexample[K cmp.Ordered, V comparable] struct {
	// Key is the key whose subhistory has no linearization, or the key of
	// the scan step.
	Key K
	// Ops is the minimal failing core: the subhistory cut at the earliest
	// response stamp at which the outputs became unexplainable. Operations
	// invoked before the cut but still running at it are included as
	// pending (see Completed) — a pending update may take effect with an
	// as-yet-unconstrained result, so the core never blames a response
	// that an omitted overlapping operation would explain.
	Ops []Op[K, V]
	// Completed[i] reports whether Ops[i] had returned at the cut. A false
	// entry is a pending update: the search may linearize its effect but
	// does not hold it to its (later) recorded output.
	Completed []bool
	// Best is the longest linearizable ordering the search found, as
	// indices into Ops.
	Best []int
	// Report is the human-readable explanation.
	Report string
}

// Result is the outcome of Check.
type Result[K cmp.Ordered, V comparable] struct {
	// Violations holds one counterexample per scan step out of range or
	// order and one per key whose subhistory is not linearizable. Empty
	// means the history is linearizable.
	Violations []Counterexample[K, V]
}

// OK reports whether the history was linearizable.
func (r Result[K, V]) OK() bool { return len(r.Violations) == 0 }

// Report concatenates the violations' reports ("linearizable" if none).
func (r Result[K, V]) Report() string {
	if r.OK() {
		return "linearizable"
	}
	parts := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		parts[i] = v.Report
	}
	return strings.Join(parts, "\n")
}

// Check searches for a linearization of h against the sequential map
// specification, decomposed per key (see the package comment), after
// checking every scan's steps against its range and order. It returns a
// result carrying one counterexample for every scan step out of range or
// out of order and one minimized counterexample for every key that has no
// linearization.
//
// The per-key partitions are built from indices: each key's indices are
// grouped and sorted by Call (a recorder's history is in Call order
// already), and its operations are then copied once, in that order, into
// one buffer the size of the history.
func Check[K cmp.Ordered, V comparable](h History[K, V]) Result[K, V] {
	res := Result[K, V]{Violations: scanViolations(h.Ops)}
	byKey := make(map[K][]int32)
	for i := range h.Ops {
		byKey[h.Ops[i].Key] = append(byKey[h.Ops[i].Key], int32(i))
	}
	buf := make([]Op[K, V], 0, len(h.Ops))
	byCall := func(a, b int32) int { return cmp.Compare(h.Ops[a].Call, h.Ops[b].Call) }
	for key, idx := range byKey {
		if !slices.IsSortedFunc(idx, byCall) {
			slices.SortFunc(idx, byCall)
		}
		lo := len(buf)
		for _, i := range idx {
			buf = append(buf, h.Ops[i])
		}
		ops := buf[lo:len(buf):len(buf)]
		if ok, _ := linearizable(ops); ok {
			continue
		}
		res.Violations = append(res.Violations, counterexample(key, ops))
	}
	// Map iteration order is random; make reports deterministic.
	slices.SortFunc(res.Violations, func(a, b Counterexample[K, V]) int {
		return cmp.Compare(a.Ops[0].Call, b.Ops[0].Call)
	})
	return res
}

// scanViolations checks the steps of every recorded scan, taken in the order
// they were emitted: each must lie in the scan's range and above the step
// before it. A step that does not yields a counterexample holding it, after
// the step before it if there is one.
func scanViolations[K cmp.Ordered, V comparable](ops []Op[K, V]) []Counterexample[K, V] {
	var steps []int32
	for i := range ops {
		if ops[i].Kind == KindScanStep {
			steps = append(steps, int32(i))
		}
	}
	slices.SortFunc(steps, func(a, b int32) int { return cmp.Compare(ops[a].Ret, ops[b].Ret) })
	type scan struct {
		proc int
		call int64
	}
	prev := make(map[scan]int32)
	var out []Counterexample[K, V]
	for _, i := range steps {
		op := &ops[i]
		s := scan{op.Proc, op.Scan}
		p, seen := prev[s]
		prev[s] = i
		var why string
		switch {
		case cmp.Less(op.Key, op.Lo) || cmp.Less(op.Hi, op.Key):
			why = fmt.Sprintf("key %v lies outside the scan's range [%v, %v]", op.Key, op.Lo, op.Hi)
		case seen && !cmp.Less(ops[p].Key, op.Key):
			why = fmt.Sprintf("key %v is not above the key %v the scan emitted before it", op.Key, ops[p].Key)
		default:
			continue
		}
		c := Counterexample[K, V]{Key: op.Key, Ops: []Op[K, V]{*op}}
		if seen {
			c.Ops = []Op[K, V]{ops[p], *op}
		}
		c.Completed = slices.Repeat([]bool{true}, len(c.Ops))
		var b strings.Builder
		fmt.Fprintf(&b, "scan step out of range or order on key %v: %s\n", op.Key, why)
		for _, o := range c.Ops {
			fmt.Fprintf(&b, "    %s\n", formatOp(o))
		}
		c.Report = strings.TrimRight(b.String(), "\n")
		out = append(out, c)
	}
	return out
}

// linearizable runs the Wing & Gong search over one key's complete
// operations (which must be sorted by Call). It returns whether a
// linearization exists and the longest linearizable ordering found (indices
// into ops).
func linearizable[K cmp.Ordered, V comparable](ops []Op[K, V]) (bool, []int) {
	completed := make([]bool, len(ops))
	for i := range completed {
		completed[i] = true
	}
	return linearizableCut(ops, completed)
}

// pendingEffect is the state transition of an operation that was invoked
// but had not returned at the cut under consideration: its effect may be
// linearized, but its recorded (later) output does not constrain it.
func pendingEffect[K cmp.Ordered, V comparable](st register[V], op Op[K, V]) register[V] {
	switch op.Kind {
	case KindInsert:
		return register[V]{present: true, val: op.Val}
	case KindDelete:
		return register[V]{}
	default:
		return st
	}
}

// linearizableCut is the search over a subhistory cut at some stamp:
// completed[i] marks the operations that had returned by the cut. Completed
// operations must all be linearized with exactly their recorded outputs;
// pending ones (invoked but still running at the cut) may optionally be
// linearized via pendingEffect, and do not impose real-time bounds on
// others. It returns whether the cut is explainable and the longest
// ordering found (indices into ops).
//
// The search state is compressed Lowe-style, and configurations (set,
// register state) that already failed are memoized, which keeps the search
// near-linear on the almost-sequential histories real runs record. The
// operations not yet linearized are linked in index order, so the search
// meets only those: an operation that stays unlinearized while thousands
// of later ones are (a long-running update whose result fits only late)
// costs nothing per step.
func linearizableCut[K cmp.Ordered, V comparable](ops []Op[K, V], completed []bool) (bool, []int) {
	n := len(ops)
	requiredLeft := 0
	for _, c := range completed {
		if c {
			requiredLeft++
		}
	}
	if requiredLeft == 0 {
		return true, nil
	}

	st := register[V]{}
	// after and before link the unlinearized operations in index order,
	// through n as both the list's head and its tail. Linearizing an
	// operation unlinks it; the search undoes its steps in reverse order,
	// which relinks each where it was.
	after, before := make([]int, n+1), make([]int, n+1)
	for i := range after {
		after[i], before[i] = (i+1)%(n+1), (i+n)%(n+1)
	}
	// best is the longest ordering found so far, and its first same
	// operations are seq's.
	var seq, best []int
	same := 0
	// config is a search configuration. The candidates, spelled as varints,
	// and end, the first unlinearized operation past them, name the
	// linearized set: every operation before end but the candidates. (A
	// linearized operation was invoked before some unlinearized completed
	// operation returned, and is therefore before end.)
	type config struct {
		end   int
		cands string
		st    register[V]
	}
	// memo holds the configurations whose every continuation failed. A
	// configuration enters it when the search backtracks out of it, so a
	// search that never backtracks keys nothing.
	memo := map[config]struct{}{}
	// cands holds the candidates of every frame on the stack, each frame's
	// above its parent's; key spells the configuration whose candidates are
	// cands[lo:], and failed looks it up in memo.
	var cands []int
	var spelled []byte
	key := func(lo, end int) config {
		spelled = spelled[:0]
		for _, j := range cands[lo:] {
			spelled = binary.AppendUvarint(spelled, uint64(j))
		}
		return config{end, string(spelled), st}
	}
	failed := func(lo, end int) bool {
		if len(memo) == 0 {
			return false
		}
		_, ok := memo[key(lo, end)]
		return ok
	}
	// expand appends to cands the operations that may linearize next from
	// the current configuration and returns the first unlinearized
	// operation past them. A candidate is unlinearized, and invoked before
	// every other unlinearized completed operation's return (pending
	// operations have no response yet, so they bound nothing). Only
	// operations invoked earlier can impose the real-time constraint, so one
	// forward scan suffices.
	expand := func() (lo, end int) {
		lo = len(cands)
		minRet := int64(1) << 62
		j := after[n]
		for ; j != n && ops[j].Call < minRet; j = after[j] {
			cands = append(cands, j)
			if completed[j] && ops[j].Ret < minRet {
				minRet = ops[j].Ret
			}
		}
		return lo, j
	}

	// frame is one level of the search: its candidates are cands[lo:], of
	// which next is the one to try next, end is what expand returned with
	// them, and the edge that led to it linearized operation chosen (< 0 at
	// the root) from state prevSt.
	type frame struct {
		lo, end, next, chosen int
		prevSt                register[V]
	}
	apply := func(i int, newSt register[V]) frame {
		fr := frame{chosen: i, prevSt: st}
		st = newSt
		after[before[i]], before[after[i]] = after[i], before[i]
		seq = append(seq, i)
		return fr
	}
	undo := func(fr *frame) {
		i := fr.chosen
		after[before[i]], before[after[i]] = i, i
		st = fr.prevSt
		seq = seq[:len(seq)-1]
		same = min(same, len(seq))
	}
	// keepBest records seq if it is the longest ordering found so far. It
	// runs where a branch of the search ends, at a repeated configuration or
	// a dead end, which is where seq is longest, and copies only the part
	// of seq that best does not share: a search that never backtracks
	// copies nothing, and no position is copied again until the search
	// backtracks past it.
	keepBest := func() {
		if len(seq) > len(best) {
			best = append(best[:same], seq[same:]...)
			same = len(seq)
		}
	}

	lo, end := expand()
	stack := []frame{{lo: lo, end: end, next: lo, chosen: -1}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		advanced := false
		for fr.next < len(cands) {
			i := cands[fr.next]
			fr.next++
			var newSt register[V]
			if completed[i] {
				var ok bool
				if newSt, ok = step(st, ops[i]); !ok {
					continue
				}
			} else {
				newSt = pendingEffect(st, ops[i])
			}
			edge := apply(i, newSt)
			if completed[i] {
				requiredLeft--
			}
			if requiredLeft == 0 {
				return true, slices.Clone(seq)
			}
			lo, end := expand()
			if failed(lo, end) {
				cands = cands[:lo]
				keepBest()
				if completed[i] {
					requiredLeft++
				}
				undo(&edge)
				continue
			}
			edge.lo, edge.end, edge.next = lo, end, lo
			stack = append(stack, edge)
			advanced = true
			break
		}
		if !advanced {
			keepBest()
			memo[key(fr.lo, fr.end)] = struct{}{}
			cands = cands[:fr.lo]
			if fr.chosen >= 0 {
				if completed[fr.chosen] {
					requiredLeft++
				}
				undo(fr)
			}
			stack = stack[:len(stack)-1]
		}
	}
	return false, best
}

// counterexample minimizes a non-linearizable per-key subhistory and
// formats the report.
func counterexample[K cmp.Ordered, V comparable](key K, ops []Op[K, V]) Counterexample[K, V] {
	core, completed := minimalFailingCore(ops)
	_, best := linearizableCut(core, completed)
	c := Counterexample[K, V]{Key: key, Ops: core, Completed: completed, Best: best}
	c.Report = formatReport(c, len(ops))
	return c
}

// cutAt builds the subhistory visible at stamp t: every operation invoked
// by t, marking those that had also returned as completed. Reads still
// running at t are dropped — pending reads have no effect, so they can
// neither explain nor contradict anything.
func cutAt[K cmp.Ordered, V comparable](ops []Op[K, V], t int64) ([]Op[K, V], []bool) {
	var core []Op[K, V]
	var completed []bool
	for _, op := range ops {
		if op.Call > t {
			continue
		}
		done := op.Ret <= t
		if !done && (op.Kind == KindGet || op.Kind == KindScanStep) {
			continue
		}
		core = append(core, op)
		completed = append(completed, done)
	}
	return core, completed
}

// minimalFailingCore cuts the subhistory at the earliest response stamp at
// which it stops being explainable: the first response that cannot be
// accounted for even granting every still-running update an arbitrary
// effect. Overlapping updates are retained as pending operations, so the
// core always contains the racing operation, not just the response it
// contradicts. The full subhistory fails (every operation completed), so a
// failing cut exists. A galloping probe bounds the number of search runs on
// long histories.
func minimalFailingCore[K cmp.Ordered, V comparable](ops []Op[K, V]) ([]Op[K, V], []bool) {
	rets := make([]int64, len(ops))
	for i, op := range ops {
		rets[i] = op.Ret
	}
	slices.Sort(rets)
	fails := func(m int) bool {
		core, completed := cutAt(ops, rets[m-1])
		ok, _ := linearizableCut(core, completed)
		return !ok
	}
	lastOK := 0
	for m := 8; m < len(rets); m *= 2 {
		if fails(m) {
			break
		}
		lastOK = m
	}
	for m := lastOK + 1; m <= len(rets); m++ {
		if fails(m) {
			return cutAt(ops, rets[m-1])
		}
	}
	return cutAt(ops, rets[len(rets)-1])
}

// formatOp renders one operation for a report.
func formatOp[K cmp.Ordered, V comparable](op Op[K, V]) string {
	var call string
	switch op.Kind {
	case KindGet:
		call = fmt.Sprintf("Get(%v)", op.Key)
	case KindInsert:
		call = fmt.Sprintf("Insert(%v, %v)", op.Key, op.Val)
	case KindDelete:
		call = fmt.Sprintf("Delete(%v)", op.Key)
	case KindScanStep:
		call = fmt.Sprintf("ScanStep(%v) of scan [%v, %v] @%d", op.Key, op.Lo, op.Hi, op.Scan)
	}
	return fmt.Sprintf("[p%d] %s = (%v, %t) @[%d,%d]", op.Proc, call, op.Out, op.OutOK, op.Call, op.Ret)
}

// formatReport builds the human-readable explanation: the minimized
// operations, the longest linearizable order found, and why each remaining
// operation cannot come next.
func formatReport[K cmp.Ordered, V comparable](c Counterexample[K, V], total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "linearizability violation on key %v:\n", c.Key)
	fmt.Fprintf(&b, "  minimal failing core: %d ops (of %d recorded on this key); no linearization exists\n", len(c.Ops), total)
	annotate := func(i int) string {
		if c.Completed[i] {
			return formatOp(c.Ops[i])
		}
		return formatOp(c.Ops[i]) + " (still running at the cut: may take effect, result unconstrained)"
	}
	for i := range c.Ops {
		fmt.Fprintf(&b, "    %s\n", annotate(i))
	}

	// Replay the best ordering to recover the stuck state.
	st := register[V]{}
	inBest := make([]bool, len(c.Ops))
	for _, i := range c.Best {
		if c.Completed[i] {
			st, _ = step(st, c.Ops[i])
		} else {
			st = pendingEffect(st, c.Ops[i])
		}
		inBest[i] = true
	}
	fmt.Fprintf(&b, "  longest linearizable order found (%d of %d ops):\n", len(c.Best), len(c.Ops))
	const tail = 8
	start := 0
	if len(c.Best) > tail {
		start = len(c.Best) - tail
		fmt.Fprintf(&b, "    ... %d earlier ops elided ...\n", start)
	}
	for _, i := range c.Best[start:] {
		fmt.Fprintf(&b, "    %s\n", annotate(i))
	}

	stKey := "absent"
	if st.present {
		stKey = fmt.Sprintf("present, value %v", st.val)
	}
	fmt.Fprintf(&b, "  state after that order: %s; every continuation fails:\n", stKey)
	minRet := int64(1) << 62
	for i, op := range c.Ops {
		if !inBest[i] && c.Completed[i] && op.Ret < minRet {
			minRet = op.Ret
		}
	}
	for i, op := range c.Ops {
		if inBest[i] || !c.Completed[i] {
			continue
		}
		if op.Call >= minRet {
			fmt.Fprintf(&b, "    %s: blocked by real time (another pending op returned at %d, before this was invoked)\n", formatOp(op), minRet)
			continue
		}
		if _, ok := step(st, op); !ok {
			fmt.Fprintf(&b, "    %s: output contradicts state — expected %s\n", formatOp(op), expect[V](st, op.Kind))
		} else {
			fmt.Fprintf(&b, "    %s: applies here, but every continuation dead-ends\n", formatOp(op))
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
