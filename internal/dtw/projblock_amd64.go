//go:build amd64 && !purego

package dtw

// projBlock16 is the SSE2 implementation of projBlock16Go
// (projblock_amd64.s). SSE2 is part of the amd64 baseline, so no feature
// detection is needed. MINPD/MAXPD resolve exact ties toward the envelope
// operand, which only matters for signed zeros (±0 compare equal); every
// downstream use squares the projected values, so results are bit-identical
// to the Go kernel for all finite inputs (TestProjBlock16AsmMatchesGo).
//
//go:noescape
func projBlock16(dst, x, lo, up *[lbBlockLen]float64)
