//go:build !reclaimcheck

package epoch

// PoisonCheck gates the recycled-memory poisoning assertions in the trees: a
// node's (and a value cell's) generation counter is bumped every time it is
// freed for reuse, and with -tags reclaimcheck readers assert that
// the generation of what they are holding never changes mid-snapshot — which
// would mean the reclamation layer freed memory while a pinned reader could
// still reach it. Off by default; the checks compile away entirely.
const PoisonCheck = false

// Gen is the generation counter of a reused object. In this build it is
// zero-size and never changes, so it costs its holder nothing; place it
// anywhere but last in a struct (a trailing zero-size field is padded).
type Gen struct{}

// Load returns the generation: always 0 in this build.
func (*Gen) Load() uint64 { return 0 }

// Bump records one more free for reuse: a no-op in this build.
func (*Gen) Bump() {}
