package epoch

import "sync/atomic"

// blockCounters is the capacity of a Counters set: one block is four whole
// cache lines.
const blockCounters = 4 * CacheLine / 8

// counterBlock holds what one slot has added to each counter of a set.
type counterBlock [blockCounters]atomic.Int64

// Counters is a set of up to 32 event counters sharded by epoch slot, for
// events counted inside pinned operations (rebalancing steps and attempts):
// an operation adds to a block private to the slot it holds pinned, so
// counting moves no cache line between CPUs, and a read sums the blocks. The
// layout is stripe-major - all of a set's counters for one slot sit together
// in one block, allocated when that slot first counts something - so a set
// costs its 1 KB table plus 256 bytes per slot that has ever used it.
type Counters struct {
	blocks [NumSlots]atomic.Pointer[counterBlock]
}

// A Counter is one counter of a Counters set. The zero value is unusable;
// Bind initializes it.
type Counter struct {
	set *Counters
	idx int
}

// Bind makes each of cs a distinct counter of s. It is called once, before
// the counters are shared.
func (s *Counters) Bind(cs ...*Counter) {
	if len(cs) > blockCounters {
		panic("epoch: more counters than a block holds")
	}
	for i, c := range cs {
		c.set, c.idx = s, i
	}
}

// Add adds n to the counter on the block of the slot g holds pinned. A caller
// that was not handed the guard of the operation it runs in (a policy method
// without one) passes nil and counts on the block Pin's probe starts from
// (slotHint): usually its own, and exact either way.
func (c *Counter) Add(g *Guard, n int64) {
	c.cell(g).Add(n)
}

// cell returns the word Add adds to.
func (c *Counter) cell(g *Guard) *atomic.Int64 {
	var p *atomic.Pointer[counterBlock]
	if g != nil {
		p = &c.set.blocks[g.slot]
	} else {
		p = &c.set.blocks[slotHint()]
	}
	b := p.Load()
	if b == nil {
		b = NewAligned[counterBlock]()
		if !p.CompareAndSwap(nil, b) {
			b = p.Load()
		}
	}
	return &b[c.idx]
}

// Load returns the counter's value: the sum over the slots. It is exact when
// no Add is concurrent, and otherwise counts each concurrent Add or not.
func (c *Counter) Load() int64 {
	var n int64
	for i := range c.set.blocks {
		if b := c.set.blocks[i].Load(); b != nil {
			n += b[c.idx].Load()
		}
	}
	return n
}
