package bench

import (
	// Registry compiles the [int64, int64] code of every structure that the
	// benchmark links. The blank imports let it inline sched.Point, the
	// sync/atomic methods and rand.IntN there, as the structures' own
	// packages do: the compiler inlines another package's function only if
	// an import carries its body.
	_ "math/rand/v2"
	_ "sync/atomic"

	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/lockavl"
	"repro/internal/ravl"
	_ "repro/internal/sched"
	"repro/internal/seqrbt"
	"repro/internal/skiplist"
	"repro/internal/stmrbt"
	"repro/internal/stmskip"
)

// Registry returns factories for every dictionary implementation in the
// repository, keyed by the names used in the paper's figures. The order
// matches the order of the series in Figure 8: the paper's own algorithms
// first, then hand-crafted competitors, then the coarse-grained baselines.
func Registry() []dict.Factory[int64, int64] {
	return []dict.Factory[int64, int64]{
		{Name: "Chromatic", New: func() dict.IntMap { return chromatic.NewOrdered[int64, int64]() }},
		{Name: "Chromatic6", New: func() dict.IntMap {
			return chromatic.NewOrdered[int64, int64](chromatic.WithAllowedViolations(6))
		}},
		{Name: "RAVL", New: func() dict.IntMap { return ravl.NewOrdered[int64, int64]() }},
		{Name: "SkipList", New: func() dict.IntMap { return skiplist.NewOrdered[int64, int64]() }},
		{Name: "LockAVL", New: func() dict.IntMap { return lockavl.NewOrdered[int64, int64]() }},
		{Name: "EBST", New: func() dict.IntMap { return ebst.NewOrdered[int64, int64]() }},
		{Name: "RBSTM", New: func() dict.IntMap { return stmrbt.NewOrdered[int64, int64]() }},
		{Name: "SkipListSTM", New: func() dict.IntMap { return stmskip.NewOrdered[int64, int64]() }},
		{Name: "RBGlobal", New: func() dict.IntMap { return seqrbt.NewGlobalOrdered[int64, int64]() }},
	}
}

// Lookup returns the factory with the given name (case-sensitive) and true,
// or a zero factory and false.
func Lookup(name string) (dict.Factory[int64, int64], bool) {
	for _, f := range Registry() {
		if f.Name == name {
			return f, true
		}
	}
	return dict.Factory[int64, int64]{}, false
}

// Names returns the registry names in order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, f := range reg {
		names[i] = f.Name
	}
	return names
}
