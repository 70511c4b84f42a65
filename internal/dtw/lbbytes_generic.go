//go:build !amd64 || purego

package dtw

// lbBytes16 falls back to the portable Go kernel on architectures without
// an assembly implementation.
func lbBytes16(b *[lbBlockLen]byte, base float64, lo, up *[lbBlockLen]float64) float64 {
	return lbBytes16Go(b, base, lo, up)
}
