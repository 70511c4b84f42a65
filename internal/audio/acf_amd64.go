//go:build amd64 && !purego

package audio

// acf16 and acf32 are the AVX2 and AVX-512 lag-block kernels at 16 and 32
// lanes (acf_amd64.s): one pass adds x[i]*y[i+k] into sums[t][k] for every
// frame t of sums, up to 3 frames on acf16 and 4 on acf32, and leaves each
// frame's sums as acfBlockGo would. acfNorm16 and acfNorm32 are acfNorm on
// their lanes. Call each only when cpuHasAVX2 or cpuHasAVX512 said yes.
//
//go:noescape
func acf16(x, y []float64, sums [][acfMaxLanes]float64)

//go:noescape
func acf32(x, y []float64, sums [][acfMaxLanes]float64)

//go:noescape
func acfNorm16(sums *[acfMaxLanes]float64, nL, n, r0 float64)

//go:noescape
func acfNorm32(sums *[acfMaxLanes]float64, nL, n, r0 float64)

// lagIndex holds k = 0..31, the lane offsets acfNorm16 and acfNorm32
// subtract from n-L.
var lagIndex = func() (k [acfMaxLanes]float64) {
	for i := range k {
		k[i] = float64(i)
	}
	return k
}()

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// hasVectorState reports whether the CPU has leaf 7, the operating system
// has enabled XGETBV (OSXSAVE, CPUID.1:ECX bit 27), the CPU has AVX
// (bit 28), and XCR0 has every bit of state.
func hasVectorState(state uint32) bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	return xgetbv0()&state == state
}

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID.7.0:EBX bit 5) and the
// operating system saves the xmm and ymm state (XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	if !hasVectorState(0x6) {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuHasAVX512 reports whether the CPU has AVX-512F (CPUID.7.0:EBX bit 16)
// and the operating system saves the xmm, ymm, opmask and both halves of
// the zmm state (XCR0 bits 1, 2, 5, 6 and 7).
func cpuHasAVX512() bool {
	if !hasVectorState(0xE6) {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}
