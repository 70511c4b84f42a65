package dtw

import (
	"fmt"
	"math"

	"warping/internal/ts"
)

// Envelope is the k-envelope of a time series (Definition 6): Lower[i] and
// Upper[i] are the minimum and maximum of the series over the window
// [i-k, i+k]. Any series that stays within a warping band of radius k of the
// original is pointwise contained in its k-envelope.
type Envelope struct {
	Lower ts.Series
	Upper ts.Series
}

// NewEnvelope computes the k-envelope of x in O(n) for any k.
func NewEnvelope(x ts.Series, k int) Envelope {
	lo, up := ts.SlidingExtremes(x, k)
	return Envelope{Lower: lo, Upper: up}
}

// Len returns the envelope length.
func (e Envelope) Len() int { return len(e.Lower) }

// SquaredDistToEnvelope returns the squared Euclidean distance between a
// series and an envelope (Definition 7): the distance to the nearest series
// contained in the envelope, which decomposes pointwise.
func SquaredDistToEnvelope(x ts.Series, e Envelope) float64 {
	if len(x) != e.Len() {
		panic(fmt.Sprintf("dtw: series length %d vs envelope length %d", len(x), e.Len()))
	}
	// Route through the blocked kernel with an infinite cutoff: the
	// abandon branch never fires and the full sum comes back.
	d, _ := SquaredDistToEnvelopeWithin(x, e, math.Inf(1))
	return d
}

// DistToEnvelope returns the Euclidean distance between a series and an
// envelope.
func DistToEnvelope(x ts.Series, e Envelope) float64 {
	return math.Sqrt(SquaredDistToEnvelope(x, e))
}

// LBKeogh returns the LB_Keogh lower bound on the banded DTW distance
// between x and y with band radius k (Lemma 2): the distance from x to the
// k-envelope of y. It never exceeds Banded(x, y, k).
func LBKeogh(x, y ts.Series, k int) float64 {
	return DistToEnvelope(x, NewEnvelope(y, k))
}

// GlobalEnvelope returns the whole-series min/max envelope used by the
// global lower-bounding technique of Yi et al.: a constant envelope with the
// series minimum and maximum at every position. It is the k >= n-1 envelope
// and yields the loosest (2-value) bound the paper compares against.
func GlobalEnvelope(x ts.Series) Envelope {
	mn, mx := x.Min(), x.Max()
	n := len(x)
	return Envelope{Lower: ts.Constant(n, mn), Upper: ts.Constant(n, mx)}
}
