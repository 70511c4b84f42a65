//go:build !amd64 || purego

package audio

// acf16 and acf32 are the portable Go kernels on builds without the
// assembly. Nothing reaches them in production — cpuHasAVX2 and
// cpuHasAVX512 are false here, so autocorrelate takes the acf4 path — but
// they keep the lag-block driver compiling.
func acf16(x, y []float64, sums *[acfMaxLanes]float64) { acfBlockGo(x, y, sums, 16) }

func acf32(x, y []float64, sums *[acfMaxLanes]float64) { acfBlockGo(x, y, sums, 32) }

func cpuHasAVX2() bool { return false }

func cpuHasAVX512() bool { return false }
