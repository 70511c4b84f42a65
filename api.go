package warping

import (
	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/index"
	"warping/internal/ts"
)

// Series is a real-valued time series (a named []float64 with methods; see
// the internal ts package for the full method set: Mean, Std, ZeroMean,
// Stretch, NormalForm, ...).
type Series = ts.Series

// NewSeries copies values into a Series.
func NewSeries(values ...float64) Series { return ts.New(values...) }

// Normalize returns the shift- and tempo-invariant normal form used
// throughout the library: the series stretched to length n with its mean
// subtracted.
func Normalize(s Series, n int) Series { return s.NormalForm(n) }

// --- Distances -----------------------------------------------------------

// EuclideanDist returns the L2 distance between equal-length series.
func EuclideanDist(x, y Series) float64 { return ts.Dist(x, y) }

// DTW returns the unconstrained Dynamic Time Warping distance.
func DTW(x, y Series) float64 { return dtw.Distance(x, y) }

// DTWBanded returns the k-Local DTW distance (Sakoe-Chiba band of radius
// k) between equal-length series.
func DTWBanded(x, y Series, k int) float64 { return dtw.Banded(x, y, k) }

// NormalizedDTW is the paper's Definition 5: banded DTW between the UTW
// normal forms of x and y (stretched to length n, mean-subtracted), with
// band radius derived from the warping width delta = (2k+1)/n.
func NormalizedDTW(x, y Series, n int, delta float64) float64 {
	return dtw.NormalizedDistance(x, y, n, delta)
}

// BandRadius converts a warping width delta into a band radius for series
// of length n.
func BandRadius(n int, delta float64) int { return dtw.BandRadius(n, delta) }

// --- Envelope transforms (the paper's contribution) -----------------------

// Transform is a lower-bounding dimensionality-reduction transform with a
// container-invariant extension to envelopes. Apply reduces a series to a
// feature vector; ApplyEnvelope reduces an envelope to a feature-space box.
type Transform = core.Transform

// NewPAATransform returns the paper's improved PAA envelope transform
// ("New_PAA"): frame averages of the envelope. n must be divisible by dim.
func NewPAATransform(n, dim int) Transform { return core.NewPAA(n, dim) }

// LowerBoundDTW returns the indexable feature-space lower bound
// D(T(x), T(Env_k(q))) <= DTW_k(x, q) of Theorem 1.
func LowerBoundDTW(t Transform, x, q Series, k int) float64 {
	return core.LowerBoundDTW(t, x, q, k)
}

// --- DTW index -------------------------------------------------------------

// Index is an exact DTW similarity index: an R*-tree over transformed
// features with envelope-box queries, an LB_Keogh second filter and exact
// banded DTW refinement. No false negatives (Theorem 1).
type Index = index.Index

// NewIndex creates a DTW index using the given envelope transform. All
// series added and queried must have length t.InputLen() and should be in
// normal form (see Normalize).
func NewIndex(t Transform) *Index {
	return index.New(t, index.Config{})
}
