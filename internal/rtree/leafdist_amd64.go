//go:build amd64 && !purego

package rtree

// leafBoxDists is the SSE2 leaf kernel (leafdist_amd64.s), two points per
// instruction; SSE2 is the amd64 baseline, so no feature detection is
// needed. It computes what leafBoxDistsGo computes, bit for bit, and over an
// ordered box that is boxDist of every point (TestLeafBoundsMatchBoxDist).
//
//go:noescape
func leafBoxDists(dst []float64, pts []uint32, stride int, box []float64)
