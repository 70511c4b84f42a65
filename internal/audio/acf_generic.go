//go:build !amd64 || purego

package audio

// acf16 is the portable Go kernel on builds without the assembly. Nothing
// reaches it in production — cpuHasAVX2 is false here, so estimateFrame
// takes the acf4 path — but it keeps the lag-block driver compiling.
func acf16(x, y []float64, sums *[acfLanes]float64) { acf16Go(x, y, sums) }

func cpuHasAVX2() bool { return false }
