package ravl

import "math"

// HeightBound returns the exact-AVL height bound for a leaf-oriented tree
// of n keys (~1.44*log2(n), plus slack for the leaf level and rounding).
// After RebalanceAll the tree's Height must not exceed it.
func HeightBound(n int) int {
	return int(1.4405*math.Log2(float64(n)+2)) + 3
}
