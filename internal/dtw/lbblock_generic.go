//go:build !amd64 || purego

package dtw

// lbBlock16 falls back to the portable Go kernel on architectures without
// an assembly implementation.
func lbBlock16(x, lo, up *[lbBlockLen]float64) float64 {
	return lbBlock16Go(x, lo, up)
}
