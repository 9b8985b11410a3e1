package main

import (
	"math/bits"
	"math/rand"

	"repro/internal/workload"
)

// zipfTableBits sizes the per-worker table of pre-drawn zipf keys. 2^20 draws
// repeat after about a fifth of a second at 5 M ops/s; the table is a sample
// of the distribution, not a tape of operations, so the repeat only fixes
// which keys are hot, which the distribution fixes anyway.
const zipfTableBits = 20

// splitmix64 is the generator in the timed loop: one add, two multiplies.
// workload.Generator.Next costs 20-30 ns per uniform draw and 70-80 ns per
// zipf draw (layer metrics workload.next_*_ns), a third of a Get on a
// 10^4-key tree; it is measured as a layer and kept out of the loop.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream is one worker's operation source. Operations are drawn afresh on
// every call. A replayed tape of (op, key) pairs is not an option: on a 10^6
// key range a key sees fewer updates per tape cycle than there are cycles,
// so every replayed Insert would find its key present and every Delete
// absent, and the upd share would decay with run length.
type stream struct {
	state    uint64
	keyRange uint64
	// Cumulative thresholds in percent: p < ins is an Insert, p < del a
	// Delete, p < scan a scan, the rest Gets.
	ins, del, scan uint64
	zipf           []uint32 // nil for uniform keys
	zi             uint32
}

// newStream seeds a worker's stream from (seed, worker) alone, so the same
// -seed reproduces every worker's operations.
func newStream(seed int64, worker int, mix workload.Mix, dist workload.Dist, keyRange int64) stream {
	st := uint64(seed)*0x9e3779b97f4a7c15 + uint64(worker)
	splitmix64(&st)
	s := stream{
		state:    st,
		keyRange: uint64(keyRange),
		ins:      uint64(mix.InsertPct),
		del:      uint64(mix.InsertPct + mix.DeletePct),
		scan:     uint64(mix.InsertPct + mix.DeletePct + mix.ScanPct),
	}
	if dist == workload.DistZipf {
		// v = 1 is the classical zipf shape workload.Generator uses.
		z := rand.NewZipf(rand.New(rand.NewSource(int64(splitmix64(&st)>>1))), workload.ZipfS, 1, uint64(keyRange-1))
		s.zipf = make([]uint32, 1<<zipfTableBits)
		for i := range s.zipf {
			s.zipf[i] = uint32(z.Uint64())
		}
	}
	return s
}

// next draws one operation: the op from the low half of a 64-bit draw, a
// uniform key from the whole draw by multiply-shift, a zipf key from the
// table in order.
func (s *stream) next() (workload.Op, int64) {
	r := splitmix64(&s.state)
	var key int64
	if s.zipf != nil {
		key = int64(s.zipf[s.zi&(1<<zipfTableBits-1)])
		s.zi++
	} else {
		hi, _ := bits.Mul64(r, s.keyRange)
		key = int64(hi)
	}
	p := (r & 0xffffffff) * 100 >> 32
	switch {
	case p < s.ins:
		return workload.OpInsert, key
	case p < s.del:
		return workload.OpDelete, key
	case p < s.scan:
		return workload.OpScan, key
	default:
		return workload.OpGet, key
	}
}
