//go:build !amd64 || purego

package audio

// acf16, acf32, acfNorm16 and acfNorm32 are the portable Go kernels on
// builds without the assembly. Nothing reaches them in production —
// cpuHasAVX2 and cpuHasAVX512 are false here, so TrackPitch runs acf4 —
// but they keep the kernel dispatch compiling.
func acf16(x, y []float64, sums [][acfMaxLanes]float64) {
	for t := range sums {
		acfBlockGo(x, y, &sums[t], 16)
	}
}

func acf32(x, y []float64, sums [][acfMaxLanes]float64) {
	for t := range sums {
		acfBlockGo(x, y, &sums[t], 32)
	}
}

func acfNorm16(sums *[acfMaxLanes]float64, nL, n, r0 float64) { normGo(sums[:16], nL, n, r0) }

func acfNorm32(sums *[acfMaxLanes]float64, nL, n, r0 float64) { normGo(sums[:32], nL, n, r0) }

// normGo is normalizeACF over a block of sums whose lane 0 is lag n-nL.
func normGo(sums []float64, nL, n, r0 float64) {
	for k, s := range sums {
		sums[k] = normalizeACF(s, int(n), int(n-nL)+k, r0)
	}
}

func cpuHasAVX2() bool { return false }

func cpuHasAVX512() bool { return false }
