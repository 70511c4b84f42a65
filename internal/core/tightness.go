package core

import (
	"warping/internal/dtw"
	"warping/internal/linalg"
	"warping/internal/ts"
)

// NewIdentity returns the identity "transform" (no dimensionality
// reduction). Its envelope lower bound is exactly LB_Keogh — the method the
// paper labels "LB" and uses as the sanity-check upper limit on tightness,
// since it uses all 2n envelope values.
func NewIdentity(n int) *LinearTransform {
	return NewLinearTransform("LB", linalg.Identity(n))
}

// Tightness returns T = (feature-space lower bound) / (true banded DTW
// distance) for a pair of series — the implementation-bias-free quality
// measure of Section 5.2. T is in [0, 1]; larger is tighter. When the true
// DTW distance is zero the tightness is reported as 1 (the bound, also
// zero, is perfect).
func Tightness(t Transform, x, y ts.Series, k int) float64 {
	true_ := dtw.Banded(x, y, k)
	if true_ == 0 {
		return 1
	}
	lb := LowerBoundDTW(t, x, y, k)
	return lb / true_
}
