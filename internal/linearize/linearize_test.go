package linearize

import (
	"strings"
	"testing"

	"repro/internal/seqrbt"
)

// lcg mirrors the dicttest suite's deterministic stream.
func lcg(state *uint64) uint64 {
	*state = *state*2862933555777941757 + 3037000493
	return *state >> 11
}

// TestRegisterModelMatchesSeqRBT cross-validates the checker's per-key
// transition function against the sequential reference tree: on random
// sequential op sequences, the outputs seqrbt produces must be exactly the
// outputs the register model accepts, step by step. This is what grounds
// the claim that Check verifies histories "against the seqrbt model" while
// searching per key.
func TestRegisterModelMatchesSeqRBT(t *testing.T) {
	tree := seqrbt.NewOrdered[int64, int64]()
	states := map[int64]register[int64]{}
	state := uint64(42)
	for i := 0; i < 20000; i++ {
		key := int64(lcg(&state) % 8) // tiny key space: lots of hits
		val := int64(lcg(&state) % 100)
		var op Op[int64, int64]
		switch lcg(&state) % 3 {
		case 0:
			v, ok := tree.Get(key)
			op = Op[int64, int64]{Kind: KindGet, Key: key, Out: v, OutOK: ok}
		case 1:
			old, existed := tree.Insert(key, val)
			op = Op[int64, int64]{Kind: KindInsert, Key: key, Val: val, Out: old, OutOK: existed}
		default:
			old, existed := tree.Delete(key)
			op = Op[int64, int64]{Kind: KindDelete, Key: key, Out: old, OutOK: existed}
		}
		next, ok := step(states[key], op)
		if !ok {
			t.Fatalf("op %d: register model rejects seqrbt's output for %s", i, formatOp(op))
		}
		states[key] = next
	}
}

// TestSequentialRecordedHistoryLinearizable records a single-proc run over
// the reference tree and checks it.
func TestSequentialRecordedHistoryLinearizable(t *testing.T) {
	r := NewRecorder[int64, int64](seqrbt.NewOrdered[int64, int64]())
	p := r.Proc()
	state := uint64(7)
	for i := 0; i < 5000; i++ {
		key := int64(lcg(&state) % 16)
		switch lcg(&state) % 3 {
		case 0:
			p.Get(key)
		case 1:
			p.Insert(key, int64(lcg(&state)%1000))
		default:
			p.Delete(key)
		}
	}
	if res := Check(r.History()); !res.OK() {
		t.Fatalf("sequential history reported non-linearizable:\n%s", res.Report())
	}
}

// mkOp builds a hand-crafted operation for the checker tests.
func mkOp(proc int, kind Kind, key, val, out int64, ok bool, call, ret int64) Op[int64, int64] {
	return Op[int64, int64]{Proc: proc, Kind: kind, Key: key, Val: val, Out: out, OutOK: ok, Call: call, Ret: ret}
}

// TestOverlappingHistoryNeedsReordering exercises the search beyond
// invocation order: the Get overlaps both writers and observes the second
// writer's value, so the only linearization orders the writers against
// invocation order.
func TestOverlappingHistoryNeedsReordering(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		// p0: Insert(1, 10) over a long interval; returns (20, true): it
		// displaced p1's value, so p1's insert linearized first despite
		// being invoked later.
		mkOp(0, KindInsert, 1, 10, 20, true, 1, 10),
		// p1: Insert(1, 20) = (0, false).
		mkOp(1, KindInsert, 1, 20, 0, false, 2, 9),
		// p2: Get(1) = (20, true), concurrent with both.
		mkOp(2, KindGet, 1, 0, 20, true, 3, 8),
		// p2 after everything: Get(1) = (10, true).
		mkOp(2, KindGet, 1, 0, 10, true, 11, 12),
	}}
	if res := Check(h); !res.OK() {
		t.Fatalf("linearizable overlapping history rejected:\n%s", res.Report())
	}
}

// TestViolationDetectedAndReported feeds a history with a lost update — an
// insert acknowledged as new (existed=false) that a later read never
// observes — and checks both the verdict and the report contents.
func TestViolationDetectedAndReported(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		// Unrelated linearizable traffic on another key: must not appear in
		// the violation report.
		mkOp(0, KindInsert, 5, 1, 0, false, 1, 2),
		mkOp(0, KindGet, 5, 0, 1, true, 3, 4),
		// Key 9: insert committed, then a strictly-later Get misses it.
		mkOp(1, KindInsert, 9, 77, 0, false, 5, 6),
		mkOp(2, KindGet, 9, 0, 0, false, 7, 8),
		// Later ops on key 9 that the minimal prefix should exclude.
		mkOp(1, KindInsert, 9, 78, 77, true, 9, 10),
		mkOp(2, KindGet, 9, 0, 78, true, 11, 12),
	}}
	res := Check(h)
	if res.OK() {
		t.Fatal("lost-update history reported linearizable")
	}
	if len(res.Violations) != 1 {
		t.Fatalf("got %d violations, want 1:\n%s", len(res.Violations), res.Report())
	}
	v := res.Violations[0]
	if v.Key != 9 {
		t.Fatalf("violation on key %d, want 9", v.Key)
	}
	if len(v.Ops) != 2 {
		t.Fatalf("minimal failing prefix has %d ops, want 2 (insert + missing get):\n%s", len(v.Ops), v.Report)
	}
	for _, want := range []string{"key 9", "Insert(9, 77)", "Get(9)", "no linearization exists"} {
		if !strings.Contains(v.Report, want) {
			t.Fatalf("report missing %q:\n%s", want, v.Report)
		}
	}
	if strings.Contains(v.Report, "key 5") {
		t.Fatalf("report mentions unrelated key:\n%s", v.Report)
	}
}

// TestRealTimeOrderEnforced checks that the checker refuses an order that a
// pure state search would accept: the read returns a value whose writer was
// invoked strictly after the read returned.
func TestRealTimeOrderEnforced(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindGet, 1, 0, 10, true, 1, 2),
		mkOp(1, KindInsert, 1, 10, 0, false, 3, 4),
	}}
	if res := Check(h); res.OK() {
		t.Fatal("future-read history reported linearizable")
	}
}

// TestScanStepSemantics: a scan step asserting a pair that was never
// current must fail; one bracketing the write must pass.
func TestScanStepSemantics(t *testing.T) {
	ok := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindInsert, 3, 30, 0, false, 1, 4),
		mkOp(1, KindScanStep, 3, 0, 30, true, 2, 6),
	}}
	if res := Check(ok); !res.OK() {
		t.Fatalf("valid scan step rejected:\n%s", res.Report())
	}
	bad := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindInsert, 3, 30, 0, false, 1, 2),
		mkOp(1, KindScanStep, 3, 0, 31, true, 3, 4),
	}}
	if res := Check(bad); res.OK() {
		t.Fatal("scan step with never-published value accepted")
	}
}

// TestDeleteReturnsDisplacedValue: delete's output must match the value the
// linearization order implies.
func TestDeleteReturnsDisplacedValue(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindInsert, 2, 5, 0, false, 1, 2),
		mkOp(1, KindInsert, 2, 6, 5, true, 3, 4),
		mkOp(0, KindDelete, 2, 0, 5, false /* wrong: existed=false */, 5, 6),
	}}
	if res := Check(h); res.OK() {
		t.Fatal("delete with contradictory output accepted")
	}
}

// TestRecorderScanFallback records a Successor-walk scan over the ordered
// reference tree and checks the per-step ops land in a linearizable
// history.
func TestRecorderScanFallback(t *testing.T) {
	tree := seqrbt.NewOrdered[int64, int64]()
	r := NewRecorder[int64, int64](tree)
	p := r.Proc()
	for k := int64(0); k < 20; k += 2 {
		p.Insert(k, k*100)
	}
	n := p.Scan(4, 12, func(a, b int64) bool { return a < b })
	if n != 5 {
		t.Fatalf("Scan visited %d keys, want 5", n)
	}
	// An empty range records nothing, not even a present lo.
	steps := len(r.History().Ops)
	if n := p.Scan(12, 4, func(a, b int64) bool { return a < b }); n != 0 || len(r.History().Ops) != steps {
		t.Fatalf("Scan(12, 4) visited %d keys and recorded %d steps, want none", n, len(r.History().Ops)-steps)
	}
	if res := Check(r.History()); !res.OK() {
		t.Fatalf("scan history rejected:\n%s", res.Report())
	}
}

// TestMinimalCoreIncludesRacingDelete pins the pending-operation cut
// semantics of the minimizer. The history is the shape the SCX-free
// overwrite protocol's documented window produces: an overwrite re-executed
// as a fresh insert (returning existed=false) because a concurrent delete
// unlinked its leaf, while the delete returns the overwritten value. An
// invocation-order prefix would cut the delete away and blame the insert
// alone — the insert's (0, false) response is only unexplainable GIVEN that
// the overlapping delete's output is held to its recorded value, so the
// core must include the delete.
func TestMinimalCoreIncludesRacingDelete(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindInsert, 20, -20, 0, false, 3, 4),
		mkOp(1, KindInsert, 20, 42, 0, false, 7, 9),
		mkOp(2, KindDelete, 20, 0, 42, true, 8, 10),
		mkOp(3, KindGet, 20, 0, 42, true, 14, 15),
	}}
	res := Check(h)
	if res.OK() {
		t.Fatal("documented-window-shaped history reported linearizable")
	}
	v := res.Violations[0]
	if len(v.Ops) != 3 {
		t.Fatalf("minimal core has %d ops, want 3 (setup, insert, delete):\n%s", len(v.Ops), v.Report)
	}
	var hasDelete bool
	for _, op := range v.Ops {
		hasDelete = hasDelete || op.Kind == KindDelete
	}
	if !hasDelete {
		t.Fatalf("racing delete cut out of the minimal core:\n%s", v.Report)
	}
	for i := range v.Ops {
		if !v.Completed[i] {
			t.Fatalf("core op %d still pending at the final cut:\n%s", i, v.Report)
		}
	}
}

// TestPendingUpdateExplainsResponse: a cut that retains a still-running
// delete must accept a response the delete's effect explains — the whole
// history here is linearizable, and the spurious-core regression would have
// flagged the insert alone.
func TestPendingUpdateExplainsResponse(t *testing.T) {
	h := History[int64, int64]{Ops: []Op[int64, int64]{
		mkOp(0, KindInsert, 20, -20, 0, false, 3, 4),
		mkOp(1, KindInsert, 20, 42, 0, false, 7, 9),
		mkOp(2, KindDelete, 20, 0, -20, true, 8, 10),
		mkOp(3, KindGet, 20, 0, 42, true, 14, 15),
	}}
	if res := Check(h); !res.OK() {
		t.Fatalf("linearizable delete-then-reinsert history rejected:\n%s", res.Report())
	}
}
