package rtree

import (
	"math"
	"slices"
)

// kernelBox returns r laid out as the leaf kernel reads it — lo, lo, hi, hi
// for each dimension, one bound per lane of a pair — in dst's storage, or
// an empty slice if r is not ordered: some Lo[i] <= Hi[i] fails, a NaN
// bound included. Only over such a box could the kernel's sum differ from
// boxDist's (leafdist_amd64.s), so then every point goes through boxDist.
func (r Rect) kernelBox(dst []float64) []float64 {
	dst = slices.Grow(dst[:0], 4*len(r.Lo))
	for i := range r.Lo {
		if !(r.Lo[i] <= r.Hi[i]) {
			return dst
		}
	}
	for i := range r.Lo {
		dst = append(dst, r.Lo[i], r.Lo[i], r.Hi[i], r.Hi[i])
	}
	return dst
}

// leafDists returns dst's storage holding r.boxDist of each point of the
// run e — a leaf's, a leaf page's or a pushed delta's; its points lie dim+2
// words apart. The kernel takes the points in pairs against box, r's
// kernelBox; an odd last point, and every point when box is empty, goes
// through boxDist. Either way each distance is Float64bits-equal to
// boxDist's.
func (r Rect) leafDists(dst []float64, e Entries, box []float64) []float64 {
	n := e.Len()
	dst = slices.Grow(dst[:0], n)[:n]
	even := 0
	if len(box) != 0 && n >= 2 {
		even = n &^ 1
		_ = e.w[(even-1)*(e.dim+2)+e.dim-1] // the kernel reads no further
		leafBoxDists(dst[:even], e.w, e.dim+2, box)
	}
	for i := even; i < n; i++ {
		dst[i] = r.boxDist(e.point(i))
	}
	return dst
}

// leafBoxDistsGo is the leaf kernel's portable twin, operation for
// operation: for each of len(dst) points, lying stride words apart in pts,
// and each dimension d in order, the float32 coordinate c widened to
// float64, then max(max(lo-c, c-hi), +0) by MAXPD's rule (the first operand
// if it is greater, else the second: so the second on a NaN and on two
// zeros), squared, rounded and added to a sum that starts at +0. box is as
// kernelBox lays it out; len(dst) must be even.
func leafBoxDistsGo(dst []float64, pts []uint32, stride int, box []float64) {
	dim := len(box) / 4
	for i := range dst {
		p := pts[i*stride:][:dim]
		var sum float64
		for d, w := range p {
			c := float64(math.Float32frombits(w))
			m := maxpd(maxpd(box[4*d]-c, c-box[4*d+2]), 0)
			sum += float64(m * m)
		}
		dst[i] = sum
	}
}

// maxpd is MAXPD on one lane: a if a > b, else b.
func maxpd(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
