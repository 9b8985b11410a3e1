package epoch

// A Recycler holds objects its owner has stopped publishing until every
// operation that was pinned when it stopped has unpinned, and then hands
// them back to be rewritten in place. It is the grace period of Retire for
// an owner that recycles its own objects instead of freeing them through a
// callback: internal/llxscx keeps one per epoch slot for the slot's SCX
// argument blocks. Unlike Retire it does no atomic read-modify-write: Put
// stamps an object with the global epoch and Get compares the stamp. Only
// the holder of the epoch slot the Recycler belongs to may call its
// methods. The zero value is empty and ready to use.
type Recycler[T any] struct {
	// ring holds n objects from head on, oldest first; its length is a
	// power of two.
	ring    []held[T]
	head, n int
	// gets counts Gets since the epoch last moved, or since Get last tried
	// to move it; seen is the epoch the count started at.
	gets int
	seen uint64
}

// held is an object and the global epoch read after it was unpublished.
type held[T any] struct {
	p  *T
	at uint64
}

// Put hands p to r. The caller must already have made p unreachable to any
// operation that pins from now on: p may be read by operations pinned now,
// and Get returns it only once they have all unpinned.
func (r *Recycler[T]) Put(p *T) {
	if r.n == len(r.ring) {
		r.resize(max(8, 2*r.n))
	}
	r.ring[(r.head+r.n)&(len(r.ring)-1)] = held[T]{p, globalEpoch.Load()}
	r.n++
}

// Get returns the oldest object in r whose grace period is over, or nil if
// there is none, so that the caller allocates only while its oldest object
// may still be read; r therefore grows to what its owner unpublishes in
// about two epochs. Its other rules are those of the retire lists:
//
//   - When the epoch has not moved for advanceEvery Gets that found the
//     oldest object in its grace period, Get tries to advance it, as Retire
//     does every advanceEvery retires, so r stays bounded when nothing
//     retires.
//   - While a watchdog eviction is active (degraded mode) the epoch no
//     longer waits for every pinned operation, so an object whose grace
//     period is over is dropped to the garbage collector, as runFree drops
//     retirees.
//
// And one of its own: an object that has stayed reusable for two more grace
// periods while the next one is reusable too is dropped. r holds that much
// more than its owner uses when the epoch stood still for a while (a long
// pin held it back while the owner kept putting), and this lets it shrink
// back to its owner's recent use once the epoch moves again. Dropping any
// sooner would throw away, and then allocate again, whatever one epoch's
// use falls short of the one two epochs before, which swings widely from
// epoch to epoch under concurrent updaters.
func (r *Recycler[T]) Get() *T {
	r.gets++
	for r.n > 0 {
		h := r.ring[r.head]
		now := globalEpoch.Load()
		if now != r.seen {
			r.seen, r.gets = now, 0
		}
		if now < h.at+graceEpochs {
			if r.gets < advanceEvery {
				return nil
			}
			r.gets = 0
			if !advance() {
				return nil
			}
			continue
		}
		r.ring[r.head] = held[T]{}
		r.head = (r.head + 1) & (len(r.ring) - 1)
		r.n--
		if degradedPins.Load() != 0 || r.n > 0 && now >= h.at+3*graceEpochs && now >= r.ring[r.head].at+graceEpochs {
			continue
		}
		if len(r.ring) > 8 && r.n < len(r.ring)/4 {
			r.resize(len(r.ring) / 2)
		}
		return h.p
	}
	return nil
}

// Len returns the number of objects r holds.
func (r *Recycler[T]) Len() int { return r.n }

// resize moves r's objects, oldest first, to a ring of the given length.
func (r *Recycler[T]) resize(size int) {
	ring := make([]held[T], size)
	for i := range r.n {
		ring[i] = r.ring[(r.head+i)&(len(r.ring)-1)]
	}
	r.ring, r.head = ring, 0
}
