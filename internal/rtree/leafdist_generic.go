//go:build !amd64 || purego

package rtree

// leafBoxDists is the portable twin on architectures without the assembly
// kernel, and under purego.
func leafBoxDists(dst []float64, pts []uint32, stride int, box []float64) {
	leafBoxDistsGo(dst, pts, stride, box)
}
