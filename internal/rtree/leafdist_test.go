package rtree

import (
	"encoding/binary"
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

// checkLeafBounds holds the leaf pass over the run e against r
// Float64bits-equal to boxDist point by point, and the raw kernel equal to
// its Go twin over the even prefix, whatever r is.
func checkLeafBounds(t *testing.T, r Rect, e Entries) {
	t.Helper()
	n := e.Len()
	got := r.leafDists(nil, e, r.kernelBox(nil))
	if len(got) != n {
		t.Fatalf("leafDists returned %d distances for %d points", len(got), n)
	}
	for i, g := range got {
		if want := r.boxDist(e.point(i)); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("box %v..%v, point %d of %d %v: leaf pass %v (%#x), boxDist %v (%#x)",
				r.Lo, r.Hi, i, n, e.point(i), g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
	even := n &^ 1
	asm, twin := make([]float64, even), make([]float64, even)
	box := pairBox(r)
	leafBoxDists(asm, e.w, e.dim+1, box)
	leafBoxDistsGo(twin, e.w, e.dim+1, box)
	for i := range asm {
		if math.Float64bits(asm[i]) != math.Float64bits(twin[i]) {
			t.Fatalf("box %v..%v, point %d of %d %v: kernel %v (%#x), twin %v (%#x)",
				r.Lo, r.Hi, i, n, e.point(i), asm[i], math.Float64bits(asm[i]), twin[i], math.Float64bits(twin[i]))
		}
	}
}

// leafPoints lays out n points of dim coordinates as a run of entries, the
// one layout: each point's id word, which no distance reads, takes bits
// that are often a NaN's or an infinity's.
func leafPoints(n, dim int, coord func(i, d int) float64) Entries {
	e := NewEntries(dim)
	p := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range p {
			p[d] = coord(i, d)
		}
		e.Append(int64(uint64(i+1)*0x9e3779b97f4a7c15|0x7ff0000000000000), p)
	}
	return e
}

// TestLeafBoundsMatchBoxDist checks the one-pass leaf scan — the SSE2
// kernel on amd64, its Go twin elsewhere and under purego — against boxDist
// per point for Float64bits equality: every count 0–61, odd and even, at
// stride dim+1, a run of entries; random boxes, lo == hi sides and points on
// a face; and ±0, ±Inf and NaN in the points and in the box, where a box
// with a NaN or a Lo > Hi side sends every point through boxDist.
func TestLeafBoundsMatchBoxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 61; n++ {
		for _, dim := range []int{1, 2, 3, 8, 9, 16} {
			lo, hi := make([]float64, dim), make([]float64, dim)
			for d := range lo {
				lo[d] = rng.NormFloat64() * 3
				hi[d] = lo[d] + rng.Float64()*2*float64(rng.Intn(2)) // lo == hi half the time
			}
			r := Rect{Lo: lo, Hi: hi}
			pts := leafPoints(n, dim, func(i, d int) float64 {
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
			checkLeafBounds(t, r, pts)
		}
	}
	// Every (lo, hi, v) triple of the stress values, ordered boxes and not,
	// as a one-dimensional box and behind a finite coordinate whose term the
	// sum already carries; the points of a leaf take every stress value in
	// turn, so each lane of the kernel meets each of them.
	vals := boxDistInputs
	for _, lo := range vals {
		for _, hi := range vals {
			n := len(vals) + 1 // odd: the last point goes through boxDist
			one := leafPoints(n, 1, func(i, _ int) float64 { return vals[i%len(vals)] })
			checkLeafBounds(t, Rect{Lo: []float64{lo}, Hi: []float64{hi}}, one)
			two := leafPoints(n, 2, func(i, d int) float64 {
				if d == 0 {
					return 2.5
				}
				return vals[i%len(vals)]
			})
			checkLeafBounds(t, Rect{Lo: []float64{-1, lo}, Hi: []float64{1, hi}}, two)
			rev := leafPoints(n-1, 2, func(i, d int) float64 {
				if d == 1 {
					return -3
				}
				return vals[(i+7)%len(vals)]
			})
			checkLeafBounds(t, Rect{Lo: []float64{lo, -1}, Hi: []float64{hi, 1}}, rev)
		}
	}
}

// TestPushMatchesBoxDist: a delta pushed onto a walk goes through the leaf
// kernel, and each of its entries surfaces at position Len()+i with a
// distance Float64bits-equal to the square root of boxDist's — over an odd
// number of entries, whose last goes through boxDist, and over an ordered
// box and one with an inverted side, which sends every entry through
// boxDist.
func TestPushMatchesBoxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const dim = 8
	tr := BulkLoad(dim, Config{MaxEntries: 8}, bulkItems(rng, 50, dim))
	for _, n := range []int{1, 7, 61} {
		delta := leafPoints(n, dim, func(int, int) float64 { return rng.NormFloat64() * 50 })
		for _, inverted := range []bool{false, true} {
			lo, hi := randomPoint(rng, dim), make([]float64, dim)
			for d := range hi {
				hi[d] = lo[d] + rng.Float64()*10
			}
			if inverted {
				lo[3], hi[3] = hi[3]+1, lo[3]
			}
			q := Rect{Lo: lo, Hi: hi}
			it := tr.NNIter(q, nil)
			it.Push(delta, math.Inf(1))
			seen := 0
			for _, nb := range pull(t, it, math.MaxInt) {
				i := int(nb.Slot) - tr.Len()
				if i < 0 {
					continue
				}
				want := math.Sqrt(q.boxDist(delta.point(i)))
				if nb.ID != delta.id(i) || math.Float64bits(nb.Dist) != math.Float64bits(want) {
					t.Fatalf("n=%d inverted=%v: entry %d surfaced as %+v, want id %d at %v", n, inverted, i, nb, delta.id(i), want)
				}
				seen++
			}
			if seen != n {
				t.Fatalf("n=%d inverted=%v: %d of the %d pushed entries surfaced", n, inverted, seen, n)
			}
		}
	}
}

// leafCase decodes a fuzz input: a dimension 1–16 and a count 0–61, whether
// each side of the box is put in order, then the box's bounds and the
// points' coordinates as little-endian float64s, read cyclically from the
// rest of data.
func leafCase(data []byte) (r Rect, pts Entries, ok bool) {
	if len(data) < 3 {
		return Rect{}, Entries{}, false
	}
	dim, n, ordered := 1+int(data[0]%16), int(data[1]%62), data[2]&1 != 0
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
		if ordered && lo[d] > hi[d] {
			lo[d], hi[d] = hi[d], lo[d]
		}
	}
	pts = leafPoints(n, dim, func(int, int) float64 { return next() })
	return Rect{Lo: lo, Hi: hi}, pts, true
}

// leafSeed encodes a fuzz input for leafCase.
func leafSeed(dim, n int, ordered bool, vals ...float64) []byte {
	flags := byte(0)
	if ordered {
		flags = 1
	}
	data := []byte{byte(dim - 1), byte(n), flags}
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// FuzzLeafBounds holds the leaf pass Float64bits-equal to boxDist per point,
// and the raw kernel to its twin, on decoded leaves (leafCase). The seeds are
// TestLeafBoundsMatchBoxDist's shapes, at a dimension and at twice it: odd
// and even counts, lo == hi, points on a face, and ±0, ±Inf and NaN in the
// points and in the box.
func FuzzLeafBounds(f *testing.F) {
	inf, nan, nz := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, k := range []int{1, 2} {
		f.Add(leafSeed(8*k, 0, true))
		f.Add(leafSeed(8*k, 61, true, -1, 1, 0.5, -2, 3, 0.25, 7))
		f.Add(leafSeed(8*k, 60, true, -1, 1, 0.5, -2, 3, 0.25, 7, 9))
		f.Add(leafSeed(3*k, 7, true, 2, 2, 2, 1, 3))            // lo == hi, points on it
		f.Add(leafSeed(2*k, 6, true, -1, 1, -1, 1, 1, -1))      // points on a face
		f.Add(leafSeed(1*k, 9, true, 0, nz, nz, 0, 0, nz))      // signed zeros
		f.Add(leafSeed(2*k, 10, true, -inf, inf, 1, inf, -inf)) // infinite bounds and points
		f.Add(leafSeed(2*k, 10, false, inf, -inf, 1, -inf))     // an inverted box
		f.Add(leafSeed(2*k, 11, true, nan, 1, 0, nan, 2, -3))   // NaN in box and points
		f.Add(leafSeed(4*k, 12, false, 1, nan, -inf, inf, nz, 5))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, pts, ok := leafCase(data); ok {
			checkLeafBounds(t, r, pts)
		}
	})
}

// BenchmarkLeafBounds times one leaf's box distances, per point: the
// one-pass kernel against boxDist point by point, over a full leaf (M = 113,
// dim 8), half its points inside the box.
func BenchmarkLeafBounds(b *testing.B) {
	const dim, n = 8, 113
	rng := rand.New(rand.NewSource(1))
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		lo[d] = rng.NormFloat64()
		hi[d] = lo[d] + 0.4
	}
	r := Rect{Lo: lo, Hi: hi}
	box := r.kernelBox(nil)
	pts := leafPoints(n, dim, func(_, d int) float64 { return lo[d] + rng.NormFloat64()*0.4 })
	row := make([]float64, n)
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			row = r.leafDists(row, pts, box)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	})
	b.Run("boxDist", func(b *testing.B) {
		for range b.N {
			for i := range row {
				row[i] = r.boxDist(pts.point(i))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	})
}
