// Package core implements the paper's primary contribution: dimensionality
// reduction transforms extended to time-series *envelopes* so that the
// GEMINI indexing framework supports Dynamic Time Warping with no false
// negatives.
//
// The key objects are:
//
//   - Transform: a lower-bounding dimensionality reduction T. Applying T to
//     a series yields an N-dimensional feature vector; applying T to a
//     k-envelope yields a FeatureEnvelope (a box in feature space).
//   - Container invariance (Definition 8): if x lies inside envelope e,
//     then T(x) lies inside T(e). Theorem 1 then gives
//     D(T(x), T(Env_k(y))) <= D_DTW(k)(x, y),
//     the feature-space DTW lower bound the index prunes with.
//   - Lemma 3: every linear transform becomes container-invariant on
//     envelopes via a sign-split of its coefficients; LinearTransform
//     implements this generically for PAA, DFT, DWT (Haar) and SVD.
//   - NewPAA vs KeoghPAA: the paper's improved PAA envelope reduction
//     (frame averages of the envelope — provably tighter) versus the prior
//     state of the art (frame min/max), kept side by side so that every
//     experiment in the paper can be reproduced.
//
// Feature scaling. All transforms in this package emit features scaled so
// that the transform matrix rows are orthogonal with norm <= 1. Plain
// Euclidean distance between feature vectors is then a valid lower bound of
// the original Euclidean distance (and, through Theorem 1, of banded DTW),
// with no extra correction factors. For PAA this means features are
// (1/sqrt(m)) * frame sums — equivalent to the standard sqrt(n/N)-scaled
// LB_PAA — so the tightness numbers of Keogh_PAA and New_PAA are directly
// comparable.
package core

import (
	"fmt"
	"math"

	"warping/internal/dtw"
	"warping/internal/ts"
)

// FeatureEnvelope is an axis-aligned box in feature space: the image of a
// time-series envelope under a container-invariant transform.
type FeatureEnvelope struct {
	Lower []float64
	Upper []float64
}

// SquaredDistToBox returns the squared Euclidean distance from point p to
// the box (0 if inside). This is the feature-space analogue of the distance
// between a series and an envelope (Definition 7).
func SquaredDistToBox(p []float64, f FeatureEnvelope) float64 {
	if len(p) != len(f.Lower) {
		panic(fmt.Sprintf("core: point dim %d vs box dim %d", len(p), len(f.Lower)))
	}
	n := len(p)
	lo, up := f.Lower[:n], f.Upper[:n] // bounds-check elimination
	var sum float64
	i := 0
	// 4-wide blocks with two accumulator chains: feature spaces here are
	// typically 4-16 dimensional, so one or a few blocks cover the whole
	// point with no per-element loop bookkeeping. (The branchy compares
	// beat a branchless builtin-max form here: candidate features are
	// usually outside the box on the same side across dimensions, so the
	// branches predict well and cost less than max's NaN/±0 handling.)
	for ; i+4 <= n; i += 4 {
		pb := (*[4]float64)(p[i:])
		lb := (*[4]float64)(lo[i:])
		ub := (*[4]float64)(up[i:])
		var s0, s1 float64
		d0 := pb[0] - ub[0]
		if t := lb[0] - pb[0]; t > d0 {
			d0 = t
		}
		d1 := pb[1] - ub[1]
		if t := lb[1] - pb[1]; t > d1 {
			d1 = t
		}
		d2 := pb[2] - ub[2]
		if t := lb[2] - pb[2]; t > d2 {
			d2 = t
		}
		d3 := pb[3] - ub[3]
		if t := lb[3] - pb[3]; t > d3 {
			d3 = t
		}
		if d0 > 0 {
			s0 += d0 * d0
		}
		if d1 > 0 {
			s1 += d1 * d1
		}
		if d2 > 0 {
			s0 += d2 * d2
		}
		if d3 > 0 {
			s1 += d3 * d3
		}
		sum += s0 + s1
	}
	for ; i < n; i++ {
		v := p[i]
		switch {
		case v > up[i]:
			d := v - up[i]
			sum += d * d
		case v < lo[i]:
			d := lo[i] - v
			sum += d * d
		}
	}
	return sum
}

// DistToBox is the square root of SquaredDistToBox.
func DistToBox(p []float64, f FeatureEnvelope) float64 {
	return math.Sqrt(SquaredDistToBox(p, f))
}

// Transform is a lower-bounding dimensionality reduction transform together
// with its container-invariant extension to envelopes.
//
// Implementations guarantee, for series x, y of length InputLen and any
// band radius k:
//
//	Dist(Apply(x), Apply(y))            <= D(x, y)            (lower-bounding)
//	x in e                              => Apply(x) in ApplyEnvelope(e)
//	DistToBox(Apply(x), ApplyEnvelope(Env_k(y))) <= D_DTW(k)(x, y) (Theorem 1)
type Transform interface {
	// Name identifies the transform in reports ("New_PAA", "DFT", ...).
	Name() string
	// InputLen is the required input series length n.
	InputLen() int
	// OutputLen is the feature dimensionality N.
	OutputLen() int
	// Apply reduces a series of length InputLen to OutputLen features.
	Apply(x ts.Series) []float64
	// ApplyEnvelope maps a time-series envelope of length InputLen to a
	// feature-space envelope, container-invariantly.
	ApplyEnvelope(e dtw.Envelope) FeatureEnvelope
}

// LowerBoundDTW computes the paper's indexable DTW lower bound between a
// query q (as the envelope side, band radius k) and a candidate series x:
// the distance from T(x) to T(Env_k(q)). By Theorem 1 this never exceeds
// the banded DTW distance between x and q.
func LowerBoundDTW(t Transform, x, q ts.Series, k int) float64 {
	fx := t.Apply(x)
	fe := t.ApplyEnvelope(dtw.NewEnvelope(q, k))
	return DistToBox(fx, fe)
}
