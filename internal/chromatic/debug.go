package chromatic

import (
	"fmt"
	"strings"
)

// DebugPath returns a human-readable description of the nodes on the search
// path for key, including each node's weight, leaf flag and whether it has
// been finalized. It is intended for debugging and test failure reports; it
// uses plain reads and is not linearizable.
func (t *Tree[K, V]) DebugPath(key K) string {
	var b strings.Builder
	less := t.Less()
	n := t.Entry()
	depth := 0
	for n != nil {
		k := "inf"
		if !n.IsSentinel() {
			k = fmt.Sprintf("%v", n.K)
		}
		fmt.Fprintf(&b, "depth=%d key=%s w=%d leaf=%v finalized=%v\n", depth, k, n.Deco(), n.IsLeaf(), n.Marked())
		if n.IsLeaf() {
			break
		}
		if n.IsSentinel() || less(key, n.K) {
			n = n.Left()
		} else {
			n = n.Right()
		}
		depth++
	}
	return b.String()
}
