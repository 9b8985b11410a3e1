package epoch

import "repro/internal/sched"

// graceEpochs is the grace period: an object unpublished at epoch E (retired,
// or put in a Recycler) may be read by an operation pinned at E-1 or E, and
// both have unpinned once the epoch is E+graceEpochs. gracePeriod is its one
// reader.
const graceEpochs = 2

// gracePeriod returns the grace period in epochs, which a pass over a fifo
// reads once. The premature-free mutation (armed only by the reclamation
// self-test) shortens it to 1: the E+1 bug DESIGN.md's grace-period argument
// rules out.
func gracePeriod() uint64 {
	if sched.Mutated(sched.PrematureFree) {
		return 1
	}
	return graceEpochs
}

// A fifo holds what its owner has stopped publishing, oldest first, each
// entry stamped with the global epoch read after it was unpublished. A slot's
// retire list is one, and so is a Recycler. Only the holder of the epoch slot
// it belongs to may use it, and the stamps it pushes never decrease, because
// the global epoch does not: the entries behind one still in its grace period
// (or covered by a snapshot pin) are in it too, so a pass pops from the head
// and stops at the first entry it must keep. The zero value is empty.
type fifo[T any] struct {
	// ring holds n entries from head on; its length is a power of two.
	ring    []stamped[T]
	head, n int
}

type stamped[T any] struct {
	v  T
	at uint64
}

// ready reports whether the oldest entry is past a grace period of grace
// epochs at epoch now. It is the package's one grace-period test.
func (q *fifo[T]) ready(now, grace uint64) bool {
	return q.n > 0 && q.ring[q.head].at+grace <= now
}

// stamp returns the stamp of the i'th oldest entry.
func (q *fifo[T]) stamp(i int) uint64 { return q.ring[(q.head+i)&(len(q.ring)-1)].at }

// push appends v stamped at. Under -tags reclaimcheck a stamp below the
// tail's panics: stopping at the first entry that must be kept is sound only
// while stamps never decrease.
func (q *fifo[T]) push(v T, at uint64) {
	if PoisonCheck && q.n > 0 && at < q.stamp(q.n-1) {
		panic("epoch: a stamp below the tail's")
	}
	if q.n == len(q.ring) {
		q.resize(max(8, 2*q.n))
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = stamped[T]{v, at}
	q.n++
}

// pop removes the oldest entry and returns it. Its place is cleared, so the
// ring keeps nothing reachable that it no longer holds; the ring never
// shrinks here (see Recycler.Get for the one rule that shrinks it).
func (q *fifo[T]) pop() T {
	v := q.ring[q.head].v
	q.ring[q.head] = stamped[T]{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// resize moves q's entries, oldest first, to a ring of the given length.
func (q *fifo[T]) resize(size int) {
	ring := make([]stamped[T], size)
	for i := range q.n {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}
