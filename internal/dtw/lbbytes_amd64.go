//go:build amd64 && !purego

package dtw

// lbBytes16 is the SSE2 implementation of lbBytes16Go (lbbytes_amd64.s):
// the bytes are widened with PUNPCK and converted with CVTPL2PD, base is
// added with ADDPD — float64(b) + base, rounded once, as lbBytes16Go does —
// and the block then runs lbBlock16's instruction sequence into its four
// partial sums, combined in the same order. So for finite inputs the result
// is bit-identical to lbBytes16Go and to lbBlock16 over the widened values
// (TestLBBytes16AsmMatchesGo).
//
//go:noescape
func lbBytes16(b *[lbBlockLen]byte, base float64, lo, up *[lbBlockLen]float64) float64
