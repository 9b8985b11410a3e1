//go:build reclaimcheck

package epoch

// PoisonCheck is true under -tags reclaimcheck: readers verify that nodes
// and value cells they hold are never recycled mid-snapshot. See
// poison_off.go.
const PoisonCheck = true

// Gen is the generation counter of a reused object. A plain word: it is
// written only when the object is recycled, which the grace period orders
// after every reader that could hold the object - a racing read is exactly
// the fault the assertions (and the race detector) exist to report.
type Gen uint64

// Load returns how many times the object has been recycled.
func (g *Gen) Load() uint64 { return uint64(*g) }

// Bump records one more free for reuse.
func (g *Gen) Bump() { *g++ }
