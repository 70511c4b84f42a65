//go:build amd64 && !purego

package dtw

// lbBlock16 is the SSE2 implementation of lbBlock16Go (lbblock_amd64.s).
// SSE2 is part of the amd64 baseline, so no feature detection is needed.
// The kernel processes two float64 lanes per instruction with the same
// accumulator structure as the Go version — lane pairs map onto the same
// four partial sums, combined in the same order — so for finite inputs the
// result is bit-identical to lbBlock16Go (TestLBBlock16AsmMatchesGo).
//
//go:noescape
func lbBlock16(x, lo, up *[lbBlockLen]float64) float64
