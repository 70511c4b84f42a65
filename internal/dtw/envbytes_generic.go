//go:build !amd64 || purego

package dtw

// envBytesPass falls back to the portable Go kernel on architectures
// without an assembly implementation.
func envBytesPass(up, lo []byte, s, m int) {
	envBytesPassGo(up, lo, s, m)
}
