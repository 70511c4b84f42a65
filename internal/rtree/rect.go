// Package rtree implements an R-tree over low-dimensional points, the
// multidimensional index structure the paper uses (an R*-tree, via LibGist)
// to index reduced-dimension feature vectors. Every tree is built once, by
// Sort-Tile-Recursive packing, and is immutable after; what is added since
// lives beside it, in the caller's flat delta, until the next pack.
//
// A leaf entry has one layout everywhere (Entries): the point's dim
// coordinates as float32s and then the id, dim+2 32-bit words. Pack copies
// the entries into one block the tree owns, in leaf order, so a RAM leaf is
// one run of that block; WritePaged copies each run, word for word, after
// its page's meta word; and the caller's delta is a run of its own. A walk
// widens its query box by the runs' rounding slack, so a float32 point's
// distance never exceeds the float64 point's, and a search that prunes by
// it dismisses nothing the exact distance would keep. The best-first walker
// reads all three through one view and computes their box distances in one
// kernel pass. An entry carries no slot: its position is where it lies — the
// r-th entry in leaf order is at position r, and the i-th entry of a pushed
// delta at the tree's Len() + i — and a caller that lays its per-entry data
// out in leaf order reads it at that position.
//
// The tree supports:
//
//   - STR bulk loading at a node capacity derived from a page size, in RAM
//     or with its leaves written one per page to a page file,
//   - range search around a point or around an axis-aligned box (the shape
//     of a feature-space envelope query): the nearest-neighbor walk below,
//     cut at the radius,
//   - incremental nearest-neighbor traversal by MINDIST, used by the
//     multi-step kNN algorithm,
//   - page-access accounting: every node visited during a search counts as
//     one page access, the implementation-bias-free IO measure of the
//     paper's Figures 9 and 10.
package rtree

import "math"

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

// SquaredMinDist returns MINDIST^2: the squared Euclidean distance from
// point p to the closest point of the rectangle (0 if inside).
func (r Rect) SquaredMinDist(p []float64) float64 {
	var sum float64
	for i, v := range p {
		switch {
		case v < r.Lo[i]:
			d := r.Lo[i] - v
			sum += float64(d * d)
		case v > r.Hi[i]:
			d := v - r.Hi[i]
			sum += float64(d * d)
		}
	}
	return sum
}

// boxDist is SquaredMinDist of a stored point — float32 coordinates, each
// widened to float64 exactly — without the three-way branch per
// coordinate, which on a leaf's worth of points around a query box
// mispredicts about as often as not: the same terms in the same order (a
// coordinate inside adds +0), so the result is Float64bits-equal. Only a
// non-finite coordinate can tell the two apart — builtin max propagates the
// NaN the comparisons skip — and then the sum is NaN and SquaredMinDist
// answers.
func (r Rect) boxDist(p []uint32) float64 {
	lo, hi := r.Lo[:len(p)], r.Hi[:len(p)] // bounds-check elimination
	var sum float64
	for i, c := range p {
		v := float64(math.Float32frombits(c))
		d := max(lo[i]-v, v-hi[i], 0)
		sum += float64(d * d) // never fused: the leaf kernel rounds the product
	}
	if sum != sum {
		return r.SquaredMinDist(Entries{dim: len(p), w: p}.widened(make([]float64, len(p)), 0))
	}
	return sum
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

// widen returns r grown on every side by the slack e[d] = max(a[d], b[d]),
// a nil slack counting as zero, rounded outward — Lo[d] − e[d] rounded down
// and Hi[d] + e[d] rounded up, so the box holds every point within e[d] of
// it in each dimension — in lo's and hi's storage; r itself when both
// slacks are nil.
//
// This is what keeps a search over stored (float32) points exact. Let p be
// a given coordinate, s its stored one, |s − p| <= e, and [l, h] the box's
// side. The widened side [l', h'] has l' <= l − e and h' >= h + e, so
// l' − s <= l − p and s − h' <= p − h exactly; rounding to nearest is
// monotone, and so are max with +0, squaring a non-negative value, a sum of
// non-negative terms and the square root. So the distance computed from s
// to the widened box is never above the distance computed, by the same
// operations, from p to the box: a leaf entry's bound stays below LB_Keogh
// (Theorem 1), and so does an internal node's, whose box holds stored
// points.
func (r Rect) widen(lo, hi, a, b []float64) Rect {
	if a == nil && b == nil {
		return r
	}
	lo, hi = lo[:0], hi[:0]
	for d := range r.Lo {
		e := 0.0
		if a != nil {
			e = a[d]
		}
		if b != nil {
			e = max(e, b[d])
		}
		lo = append(lo, subDown(r.Lo[d], e))
		hi = append(hi, addUp(r.Hi[d], e))
	}
	return Rect{Lo: lo, Hi: hi}
}

// twoSum returns s = a + b as rounded and its rounding error a + b − s,
// which is exact when both are finite (Knuth's TwoSum).
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

// addUp returns a + b rounded up: the least float64 not below the exact sum.
func addUp(a, b float64) float64 {
	s, err := twoSum(a, b)
	if err > 0 {
		return math.Nextafter(s, math.Inf(1))
	}
	return s
}

// subDown returns a − b rounded down: the greatest float64 not above the
// exact difference.
func subDown(a, b float64) float64 {
	s, err := twoSum(a, -b)
	if err < 0 {
		return math.Nextafter(s, math.Inf(-1))
	}
	return s
}

// distUp returns |a − b| rounded up; NaN if either is NaN or both are the
// same infinity.
func distUp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return addUp(a, -b)
}
