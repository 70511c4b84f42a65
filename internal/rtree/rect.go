// Package rtree implements an R-tree over low-dimensional points, the
// multidimensional index structure the paper uses (an R*-tree, via LibGist)
// to index reduced-dimension feature vectors. Every tree is built once, by
// Sort-Tile-Recursive packing, and is immutable after; what is added since
// lives beside it, in the caller's flat delta, until the next pack.
//
// A leaf entry has one layout everywhere (Entries): the point's dim
// coordinates and then the id, dim+1 words. BulkLoad copies the entries into
// one block the tree owns, in leaf order, so a RAM leaf is one run of that
// block; WritePaged copies each run, word for word, after its page's meta
// word; and the caller's delta is a run of its own. The best-first walker
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
		sum += float64(d * d) // never fused: the leaf kernel rounds the product
	}
	if sum != sum {
		return r.SquaredMinDist(p)
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
