//go:build !amd64 || purego

package dtw

// shadowBlock16 falls back to the portable Go kernel on architectures
// without an assembly implementation.
func shadowBlock16(q *[lbBlockLen]byte, base, step float64, lo, up *[lbBlockLen]float64) float64 {
	return shadowBlock16Go(q, base, step, lo, up)
}
