package epoch

// A Recycler holds objects its owner has stopped publishing until every
// operation that was pinned when it stopped has unpinned, and then hands
// them back to be rewritten in place. It is the grace period of Retire, on
// the same stamped FIFO as a retire list, for an owner that recycles its own
// objects instead of freeing them through a callback: internal/llxscx keeps
// one per epoch slot for the slot's SCX argument blocks. Unlike Retire it
// does no atomic read-modify-write: Put stamps an object with the global
// epoch and Get compares the stamp. Only the holder of the epoch slot the
// Recycler belongs to may call its methods. The zero value is empty and
// ready to use.
type Recycler[T any] struct {
	q fifo[*T]
	// gets counts Gets since the epoch last moved, or since Get last tried
	// to move it; seen is the epoch the count started at.
	gets int
	seen uint64
}

// Put hands p to r. The caller must already have made p unreachable to any
// operation that pins from now on: p may be read by operations pinned now,
// and Get returns it only once they have all unpinned.
func (r *Recycler[T]) Put(p *T) { r.q.push(p, globalEpoch.Load()) }

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
//     period is over is dropped to the garbage collector, as drain drops
//     retirees.
//
// And one of its own: an object that has stayed reusable for two more grace
// periods while the next one is reusable too is dropped, and the ring
// shrinks once it is a quarter full. r holds that much more than its owner
// uses when the epoch stood still for a while (a long pin held it back
// while the owner kept putting), and this lets it shrink back to its
// owner's recent use once the epoch moves again. Dropping any sooner would
// throw away, and then allocate again, whatever one epoch's use falls short
// of the one two epochs before, which swings widely from epoch to epoch
// under concurrent updaters.
func (r *Recycler[T]) Get() *T {
	q, grace, now := &r.q, gracePeriod(), globalEpoch.Load()
	r.gets++
	for {
		if now != r.seen {
			r.seen, r.gets = now, 0
		}
		if q.ready(now, grace) {
			break
		}
		if q.n == 0 || r.gets < advanceEvery {
			return nil
		}
		r.gets = 0
		if !advance() {
			return nil
		}
		now = globalEpoch.Load()
	}
	degraded := degradedPins.Load() != 0
	for q.ready(now, grace) {
		surplus := q.ready(now, 3*grace)
		p := q.pop()
		if degraded || surplus && q.ready(now, grace) {
			continue
		}
		if len(q.ring) > minRing && q.n < len(q.ring)/4 {
			q.resize(len(q.ring) / 2)
		}
		return p
	}
	return nil
}

// Len returns the number of objects r holds.
func (r *Recycler[T]) Len() int { return r.q.n }
