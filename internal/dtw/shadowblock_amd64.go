//go:build amd64 && !purego

package dtw

// shadowBlock16 is the SSE2 implementation of shadowBlock16Go
// (shadowblock_amd64.s): the codes are widened with PUNPCK and converted
// with CVTPL2PD, and the lanes map onto lbBlock16's four partial sums,
// combined in the same order, so for finite inputs the result is
// bit-identical to shadowBlock16Go (TestShadowBlock16AsmMatchesGo). The Go
// kernel takes over twice as long (BenchmarkShadowDist), which would spend
// much of what the shadow saves in page reads.
//
//go:noescape
func shadowBlock16(q *[lbBlockLen]byte, base, step float64, lo, up *[lbBlockLen]float64) float64
