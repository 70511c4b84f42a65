package dtw

import (
	"encoding/binary"
	"fmt"
	"math"

	"warping/internal/ts"
)

// A shadow is the 8-bit quantised stand-in of a series that a paged corpus
// reads before the series itself: ShadowSize(n) bytes, the little-endian
// float64s base and step followed by one code per point. Code qᵢ stands for
// the interval [aᵢ, aᵢ + step] with aᵢ = base + qᵢ·step, and Quantise picks
// it so that the interval holds xᵢ in the kernels' own float expressions.
// The distance from those intervals to an envelope is then below the
// distance from the series itself — LB_Keogh — point by point and in
// floating point (SquaredShadowDistToEnvelopeWithin), at an eighth of the
// bytes: 144 B for a 128-point series against 1 KiB.
const shadowHeader = 16

// ShadowSize returns the size in bytes of the shadow of an n-point series.
func ShadowSize(n int) int { return shadowHeader + n }

// shadowLower is aᵢ as every shadow kernel computes it. The conversion keeps
// the product from fusing into the sum, which would round differently.
func shadowLower(base, step float64, q byte) float64 {
	return base + float64(float64(q)*step)
}

// Quantise writes the shadow of x into dst, which must be ShadowSize(len(x))
// bytes. base is min(x) and step just over (max(x) − min(x))/255; a constant
// series gets step 0, which is exact. Every point is checked to lie in its
// code's interval as the kernels compute it. Rounding could leave a point
// between two neighbouring intervals (never seen in 25.6 million points of
// random walks at scales from 1e-20 to 1e20); the series then gets one
// interval spanning all of it — looser, never wrong. The one error is a
// series whose range is not a finite float64 (a NaN or infinite value, or
// extremes too far apart), which has no shadow.
func Quantise(dst []byte, x ts.Series) error {
	if len(dst) != ShadowSize(len(x)) {
		panic(fmt.Sprintf("dtw: shadow of %d bytes for a %d-point series", len(dst), len(x)))
	}
	codes := dst[shadowHeader:]
	var base, step float64
	if len(x) > 0 {
		top := x[0]
		base = x[0]
		for _, v := range x {
			base, top = min(base, v), max(top, v) // NaN-propagating
		}
		if !(top-base <= math.MaxFloat64) {
			return fmt.Errorf("dtw: series range [%v, %v] is not finite", base, top)
		}
		if top > base {
			step = quantiseSteps(codes, x, base, top)
		} else {
			clear(codes)
		}
	}
	binary.LittleEndian.PutUint64(dst, math.Float64bits(base))
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(step))
	return nil
}

// quantiseSteps fills the codes of a series spanning [base, top], top > base,
// and returns the step they were chosen at.
func quantiseSteps(codes []byte, x ts.Series, base, top float64) float64 {
	// A margin of a few ulps of the largest magnitude keeps the last
	// interval's upper end at or above top.
	mag := max(-base, top)
	step := (top-base)/255 + 4*(math.Nextafter(mag, math.Inf(1))-mag)
	if quantiseAt(codes, x, base, step) {
		return step
	}
	step = spanStep(base, top)
	if !quantiseAt(codes, x, base, step) {
		panic("dtw: an interval spanning the series does not hold it")
	}
	return step
}

// spanStep returns the smallest step with base + step >= top: code 0's
// interval [base, base + step] then holds every point of a series spanning
// [base, top], and a higher code is chosen only for a point at top, which
// its interval holds too.
func spanStep(base, top float64) float64 {
	step := top - base
	for base+step < top {
		step = math.Nextafter(step, math.Inf(1))
	}
	return step
}

// quantiseAt gives each point the largest code whose interval starts at or
// below it, and reports whether every interval holds its point.
func quantiseAt(codes []byte, x ts.Series, base, step float64) bool {
	codes = codes[:len(x)]
	for i, v := range x {
		q := min(max(int((v-base)/step), 0), 255)
		for q > 0 && shadowLower(base, step, byte(q)) > v {
			q--
		}
		for q < 255 && shadowLower(base, step, byte(q+1)) <= v {
			q++
		}
		if a := shadowLower(base, step, byte(q)); a > v || a+step < v {
			return false
		}
		codes[i] = byte(q)
	}
	return true
}

// shadowBlock16Go accumulates one 16-wide block of the shadow's envelope
// distance in pure Go: the portable implementation of shadowBlock16 and the
// reference the assembly kernel is tested against. Point j contributes
// max(aⱼ − upⱼ, loⱼ − (aⱼ + step), 0)², which is at most LB_Keogh's
// max(xⱼ − upⱼ, loⱼ − xⱼ, 0)² whenever aⱼ ≤ xⱼ ≤ aⱼ + step, because
// rounded subtraction is monotone in each operand. The four accumulators and
// their (s0+s1)+(s2+s3) combine are lbBlock16Go's, so the block sum is at
// most LB_Keogh's block sum in floating point too.
func shadowBlock16Go(q *[lbBlockLen]byte, base, step float64, lo, up *[lbBlockLen]float64) float64 {
	var s [4]float64
	for j := 0; j < lbBlockLen; j++ {
		a := shadowLower(base, step, q[j])
		d := a - up[j]
		if t := lo[j] - (a + step); t > d {
			d = t
		}
		if d > 0 {
			s[j&3] += d * d
		}
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// SquaredShadowDistToEnvelopeWithin is SquaredDistToEnvelopeWithin over a
// shadow sh (Quantise) instead of the series: the squared distance from the
// shadow's intervals to e, early abandoning once it exceeds cutoff2. It runs
// in the same 16-wide blocks (shadowBlock16; SSE2 assembly on amd64) with
// the same abandon points and scalar tail, and every term is at most the
// series' term, so the result is at most LB_Keogh's in floating point and an
// abandon here implies an abandon there at the same cutoff — a shadow prune
// is an LB_Keogh prune that never read the series.
func SquaredShadowDistToEnvelopeWithin(sh []byte, e Envelope, cutoff2 float64) (float64, bool) {
	n := e.Len()
	if len(sh) != ShadowSize(n) {
		panic("dtw: shadow size vs envelope length mismatch")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	base := math.Float64frombits(binary.LittleEndian.Uint64(sh))
	step := math.Float64frombits(binary.LittleEndian.Uint64(sh[8:]))
	codes := sh[shadowHeader:]
	lo, up := e.Lower[:n], e.Upper[:n] // bounds-check elimination
	var sum float64
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		sum += shadowBlock16(
			(*[lbBlockLen]byte)(codes[i:]),
			base, step,
			(*[lbBlockLen]float64)(lo[i:]),
			(*[lbBlockLen]float64)(up[i:]),
		)
		if sum > cutoff2 {
			return sum, false
		}
	}
	for ; i < n; i++ {
		a := shadowLower(base, step, codes[i])
		d := a - up[i]
		if t := lo[i] - (a + step); t > d {
			d = t
		}
		if d > 0 {
			sum += d * d
			if sum > cutoff2 {
				return sum, false
			}
		}
	}
	return sum, true
}
