//go:build amd64 && !purego

package audio

// acf16 is the AVX2 implementation of acf16Go (acf_amd64.s); call it only
// when cpuHasAVX2 said yes.
//
//go:noescape
func acf16(x, y []float64, sums *[acfLanes]float64)

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// preserves the ymm registers (CPUID and XGETBV, acf_amd64.s).
func cpuHasAVX2() bool
