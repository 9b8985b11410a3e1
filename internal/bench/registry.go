package bench

import (
	"repro/internal/chromatic"
	"repro/internal/dict"
	"repro/internal/ebst"
	"repro/internal/lockavl"
	"repro/internal/ravl"
	"repro/internal/seqrbt"
	"repro/internal/skiplist"
	"repro/internal/stmrbt"
	"repro/internal/stmskip"
)

// Registry returns factories for every dictionary implementation in the
// repository, keyed by the names used in the paper's figures. The order
// matches the order of the series in Figure 8: the paper's own algorithms
// first, then hand-crafted competitors, then the coarse-grained baselines.
func Registry() []dict.IntFactory {
	return []dict.IntFactory{
		{Name: "Chromatic", New: func() dict.IntMap { return chromatic.New() }},
		{Name: "Chromatic6", New: func() dict.IntMap { return chromatic.NewChromatic6() }},
		{Name: "RAVL", New: func() dict.IntMap { return ravl.New() }},
		{Name: "SkipList", New: func() dict.IntMap { return skiplist.New() }},
		{Name: "LockAVL", New: func() dict.IntMap { return lockavl.New() }},
		{Name: "EBST", New: func() dict.IntMap { return ebst.New() }},
		{Name: "RBSTM", New: func() dict.IntMap { return stmrbt.New() }},
		{Name: "SkipListSTM", New: func() dict.IntMap { return stmskip.New() }},
		{Name: "RBGlobal", New: func() dict.IntMap { return seqrbt.NewGlobal() }},
	}
}

// Lookup returns the factory with the given name (case-sensitive) and true,
// or a zero factory and false.
func Lookup(name string) (dict.IntFactory, bool) {
	for _, f := range Registry() {
		if f.Name == name {
			return f, true
		}
	}
	return dict.IntFactory{}, false
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
