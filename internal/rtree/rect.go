// Package rtree implements an R*-tree (Beckmann et al., SIGMOD 1990) over
// low-dimensional points, the multidimensional index structure the paper
// uses (via LibGist) to index reduced-dimension feature vectors.
//
// The tree supports:
//
//   - point insertion with the R* forced-reinsert and split heuristics,
//   - range search around a point or around an axis-aligned box (the shape
//     of a feature-space envelope query),
//   - incremental nearest-neighbor traversal by MINDIST, used by the
//     multi-step kNN algorithm,
//   - page-access accounting: every node visited during a search counts as
//     one page access, the implementation-bias-free IO measure of the
//     paper's Figures 9 and 10.
package rtree

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (MBR). Lo and Hi have equal length and
// Lo[i] <= Hi[i] for all i. A point is a Rect with Lo == Hi.
type Rect struct {
	Lo, Hi []float64
}

// PointRect returns the degenerate rectangle covering a single point. The
// point slice is shared, not copied.
func PointRect(p []float64) Rect {
	return Rect{Lo: p, Hi: p}
}

// NewRect validates and returns a rectangle.
func NewRect(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("rtree: rect dims %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("rtree: rect lo[%d]=%v > hi[%d]=%v", i, lo[i], i, hi[i])
		}
	}
	return Rect{Lo: lo, Hi: hi}, nil
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone deep-copies the rectangle.
func (r Rect) Clone() Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	return Rect{Lo: lo, Hi: hi}
}

// Area returns the volume of the rectangle.
func (r Rect) Area() float64 {
	area := 1.0
	for i := range r.Lo {
		area *= r.Hi[i] - r.Lo[i]
	}
	return area
}

// Margin returns the sum of edge lengths (the R* "margin" criterion).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Center returns the rectangle center.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// unionInPlace grows r to cover s, reusing r's slices.
func (r *Rect) unionInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Intersects reports whether the rectangles overlap (closed boxes).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection (0 if disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	area := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		area *= hi - lo
	}
	return area
}

// Contains reports whether point p lies inside the rectangle.
func (r Rect) Contains(p []float64) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Enlargement returns the area increase needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// SquaredMinDist returns MINDIST^2: the squared Euclidean distance from
// point p to the closest point of the rectangle (0 if inside).
func (r Rect) SquaredMinDist(p []float64) float64 {
	var sum float64
	for i, v := range p {
		switch {
		case v < r.Lo[i]:
			d := r.Lo[i] - v
			sum += d * d
		case v > r.Hi[i]:
			d := v - r.Hi[i]
			sum += d * d
		}
	}
	return sum
}

// boxDist is SquaredMinDist without the three-way branch per coordinate,
// which on a leaf's worth of points around a query box mispredicts about as
// often as not: the same terms in the same order (a coordinate inside adds
// +0), so the result is Float64bits-equal. Only a non-finite coordinate can
// tell the two apart — builtin max propagates the NaN the comparisons skip —
// and then the sum is NaN and SquaredMinDist answers.
func (r Rect) boxDist(p []float64) float64 {
	lo, hi := r.Lo[:len(p)], r.Hi[:len(p)] // bounds-check elimination
	var sum float64
	for i, v := range p {
		d := max(lo[i]-v, v-hi[i], 0)
		sum += d * d
	}
	if sum != sum {
		return r.SquaredMinDist(p)
	}
	return sum
}

// squaredMinDistLeq reports whether SquaredMinDist(p) <= r2, abandoning the
// accumulation as soon as it exceeds r2. Range searches test every item of
// every visited leaf against the query box, so in high dimensions most
// points fail after the first coordinate or two; the early exit makes the
// leaf scan proportional to how close a point is rather than to dim.
func (r Rect) squaredMinDistLeq(p []float64, r2 float64) bool {
	lo, hi := r.Lo[:len(p)], r.Hi[:len(p)] // bounds-check elimination
	var sum float64
	for i, v := range p {
		switch {
		case v < lo[i]:
			d := lo[i] - v
			sum += d * d
		case v > hi[i]:
			d := v - hi[i]
			sum += d * d
		default:
			continue
		}
		if sum > r2 {
			return false
		}
	}
	return true
}

// SquaredMinDistRect returns the squared minimum distance between two
// rectangles (0 if they intersect). With a degenerate query rectangle this
// reduces to SquaredMinDist; with a feature-envelope box it is exactly the
// pruning distance needed for DTW range queries.
func (r Rect) SquaredMinDistRect(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		switch {
		case s.Hi[i] < r.Lo[i]:
			d := r.Lo[i] - s.Hi[i]
			sum += d * d
		case s.Lo[i] > r.Hi[i]:
			d := s.Lo[i] - r.Hi[i]
			sum += d * d
		}
	}
	return sum
}
