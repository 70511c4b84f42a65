//go:build !amd64 || purego

package dtw

// projBlock16 falls back to the portable Go kernel on architectures without
// an assembly implementation.
func projBlock16(dst, x, lo, up *[lbBlockLen]float64) {
	projBlock16Go(dst, x, lo, up)
}
