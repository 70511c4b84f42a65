package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pairBox lays r out as kernelBox does, without its order check: the raw
// kernel and its twin must agree over any box.
func pairBox(r Rect) []float64 {
	var box []float64
	for i := range r.Lo {
		box = append(box, r.Lo[i], r.Lo[i], r.Hi[i], r.Hi[i])
	}
	return box
}

// checkLeafBounds holds the leaf pass over the n points of pts (stride
// floats apart) against r Float64bits-equal to boxDist point by point, and
// the raw kernel equal to its Go twin over the even prefix, whatever r is.
func checkLeafBounds(t *testing.T, r Rect, pts []float64, stride, n int) {
	t.Helper()
	dim := r.Dim()
	got := r.leafDists(nil, pts, stride, n, r.kernelBox(nil))
	if len(got) != n {
		t.Fatalf("leafDists returned %d distances for %d points", len(got), n)
	}
	for i, g := range got {
		p := pts[i*stride:][:dim]
		if want := r.boxDist(p); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("box %v..%v, point %d of %d (stride %d) %v: leaf pass %v (%#x), boxDist %v (%#x)",
				r.Lo, r.Hi, i, n, stride, p, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
	even := n &^ 1
	asm, twin := make([]float64, even), make([]float64, even)
	box := pairBox(r)
	leafBoxDists(asm, pts, stride, box)
	leafBoxDistsGo(twin, pts, stride, box)
	for i := range asm {
		if math.Float64bits(asm[i]) != math.Float64bits(twin[i]) {
			t.Fatalf("box %v..%v, point %d of %d (stride %d) %v: kernel %v (%#x), twin %v (%#x)",
				r.Lo, r.Hi, i, n, stride, pts[i*stride:][:dim], asm[i], math.Float64bits(asm[i]), twin[i], math.Float64bits(twin[i]))
		}
	}
}

// leafPoints lays out n points of dim coordinates stride floats apart, the
// gaps between them filled with a value no point reads (a leaf page's id
// and slot words).
func leafPoints(n, dim, stride int, coord func(i, d int) float64) []float64 {
	pts := make([]float64, n*stride)
	for i := range pts {
		pts[i] = -12345.5
	}
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			pts[i*stride+d] = coord(i, d)
		}
	}
	return pts
}

// TestLeafBoundsMatchBoxDist checks the one-pass leaf scan — the SSE2
// kernel on amd64, its Go twin elsewhere and under purego — against boxDist
// per point for Float64bits equality: every count 0–61, odd and even, at
// stride dim (a RAM leaf's run) and dim+2 (a leaf page's entries); random
// boxes, lo == hi sides and points on a face; and ±0, ±Inf and NaN in the
// points and in the box, where a box with a NaN or a Lo > Hi side sends
// every point through boxDist.
func TestLeafBoundsMatchBoxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 61; n++ {
		for _, dim := range []int{1, 2, 3, 8, 9} {
			for _, stride := range []int{dim, dim + 2} {
				lo, hi := make([]float64, dim), make([]float64, dim)
				for d := range lo {
					lo[d] = rng.NormFloat64() * 3
					hi[d] = lo[d] + rng.Float64()*2*float64(rng.Intn(2)) // lo == hi half the time
				}
				r := Rect{Lo: lo, Hi: hi}
				pts := leafPoints(n, dim, stride, func(i, d int) float64 {
					switch rng.Intn(5) {
					case 0:
						return lo[d] + (hi[d]-lo[d])*rng.Float64() // inside
					case 1:
						return lo[d] // on a face
					case 2:
						return hi[d]
					default:
						return rng.NormFloat64() * 5
					}
				})
				checkLeafBounds(t, r, pts, stride, n)
			}
		}
	}
	// Every (lo, hi, v) triple of the stress values, ordered boxes and not,
	// as a one-dimensional box and behind a finite coordinate whose term the
	// sum already carries; the points of a leaf take every stress value in
	// turn, so each lane of the kernel meets each of them.
	vals := boxDistInputs
	for _, lo := range vals {
		for _, hi := range vals {
			for _, stride := range []int{1, 3} {
				n := len(vals) + 1 // odd: the last point goes through boxDist
				one := leafPoints(n, 1, stride, func(i, _ int) float64 { return vals[i%len(vals)] })
				checkLeafBounds(t, Rect{Lo: []float64{lo}, Hi: []float64{hi}}, one, stride, n)
				two := leafPoints(n, 2, stride+1, func(i, d int) float64 {
					if d == 0 {
						return 2.5
					}
					return vals[i%len(vals)]
				})
				checkLeafBounds(t, Rect{Lo: []float64{-1, lo}, Hi: []float64{1, hi}}, two, stride+1, n)
				rev := leafPoints(n-1, 2, stride+1, func(i, d int) float64 {
					if d == 1 {
						return -3
					}
					return vals[(i+7)%len(vals)]
				})
				checkLeafBounds(t, Rect{Lo: []float64{lo, -1}, Hi: []float64{hi, 1}}, rev, stride+1, n-1)
			}
		}
	}
}

// leafCase decodes a fuzz input: a dimension 1–9 and a count 0–61, a RAM
// (stride dim) or page (dim+2) layout, whether each side of the box is put
// in order, then the box's bounds and the points' coordinates as
// little-endian float64s, read cyclically from the rest of data.
func leafCase(data []byte) (r Rect, pts []float64, stride, n int) {
	if len(data) < 3 {
		return Rect{}, nil, 0, -1
	}
	dim, n, flags := 1+int(data[0]%9), int(data[1]%62), data[2]
	stride = dim + 2*int(flags&1)
	words := data[3:]
	k := 0
	next := func() float64 {
		if len(words) < 8 {
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(words[(k%(len(words)/8))*8:]))
		k++
		return v
	}
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		lo[d], hi[d] = next(), next()
		if flags&2 != 0 && lo[d] > hi[d] {
			lo[d], hi[d] = hi[d], lo[d]
		}
	}
	pts = leafPoints(n, dim, stride, func(int, int) float64 { return next() })
	return Rect{Lo: lo, Hi: hi}, pts, stride, n
}

// leafSeed encodes a fuzz input for leafCase.
func leafSeed(dim, n int, paged, ordered bool, vals ...float64) []byte {
	flags := byte(0)
	if paged {
		flags |= 1
	}
	if ordered {
		flags |= 2
	}
	data := []byte{byte(dim - 1), byte(n), flags}
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// FuzzLeafBounds holds the leaf pass Float64bits-equal to boxDist per point,
// and the raw kernel to its twin, on decoded leaves (leafCase). The seeds are
// TestLeafBoundsMatchBoxDist's shapes: odd and even counts, both strides,
// lo == hi, points on a face, and ±0, ±Inf and NaN in the points and in the
// box.
func FuzzLeafBounds(f *testing.F) {
	inf, nan, nz := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, paged := range []bool{false, true} {
		f.Add(leafSeed(8, 0, paged, true))
		f.Add(leafSeed(8, 61, paged, true, -1, 1, 0.5, -2, 3, 0.25, 7))
		f.Add(leafSeed(8, 60, paged, true, -1, 1, 0.5, -2, 3, 0.25, 7, 9))
		f.Add(leafSeed(3, 7, paged, true, 2, 2, 2, 1, 3))            // lo == hi, points on it
		f.Add(leafSeed(2, 6, paged, true, -1, 1, -1, 1, 1, -1))      // points on a face
		f.Add(leafSeed(1, 9, paged, true, 0, nz, nz, 0, 0, nz))      // signed zeros
		f.Add(leafSeed(2, 10, paged, true, -inf, inf, 1, inf, -inf)) // infinite bounds and points
		f.Add(leafSeed(2, 10, paged, false, inf, -inf, 1, -inf))     // an inverted box
		f.Add(leafSeed(2, 11, paged, true, nan, 1, 0, nan, 2, -3))   // NaN in box and points
		f.Add(leafSeed(4, 12, paged, false, 1, nan, -inf, inf, nz, 5))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, pts, stride, n := leafCase(data)
		if n < 0 {
			return
		}
		checkLeafBounds(t, r, pts, stride, n)
	})
}

// BenchmarkLeafBounds times one leaf's box distances, per point: the
// one-pass kernel against boxDist point by point, over a full leaf (M = 60,
// dim 8) in each layout, half its points inside the box.
func BenchmarkLeafBounds(b *testing.B) {
	const dim, n = 8, 60
	rng := rand.New(rand.NewSource(1))
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		lo[d] = rng.NormFloat64()
		hi[d] = lo[d] + 0.4
	}
	r := Rect{Lo: lo, Hi: hi}
	box := r.kernelBox(nil)
	for _, stride := range []int{dim, dim + 2} {
		pts := leafPoints(n, dim, stride, func(_, d int) float64 { return lo[d] + rng.NormFloat64()*0.4 })
		row := make([]float64, n)
		b.Run(fmt.Sprintf("stride=%d/kernel", stride), func(b *testing.B) {
			for range b.N {
				row = r.leafDists(row, pts, stride, n, box)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		})
		b.Run(fmt.Sprintf("stride=%d/boxDist", stride), func(b *testing.B) {
			for range b.N {
				for i := range row {
					row[i] = r.boxDist(pts[i*stride:][:dim])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		})
	}
}
