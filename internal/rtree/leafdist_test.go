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
				r.Lo, r.Hi, i, n, e.Item(i).Point, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
	even := n &^ 1
	asm, twin := make([]float64, even), make([]float64, even)
	box := pairBox(r)
	leafBoxDists(asm, e.w, e.dim+2, box)
	leafBoxDistsGo(twin, e.w, e.dim+2, box)
	for i := range asm {
		if math.Float64bits(asm[i]) != math.Float64bits(twin[i]) {
			t.Fatalf("box %v..%v, point %d of %d %v: kernel %v (%#x), twin %v (%#x)",
				r.Lo, r.Hi, i, n, e.Item(i).Point, asm[i], math.Float64bits(asm[i]), twin[i], math.Float64bits(twin[i]))
		}
	}
}

// leafPoints lays out n points of dim coordinates as a run of entries, the
// one layout: each point's id words, which no distance reads, take bits
// that are often a NaN's or an infinity's.
func leafPoints(n, dim int, coord func(i, d int) float64) Entries {
	e, _ := leafPointsOf(n, dim, coord)
	return e
}

// leafPointsOf is leafPoints that also returns the points as given, before
// the run rounded them to float32.
func leafPointsOf(n, dim int, coord func(i, d int) float64) (Entries, [][]float64) {
	e := NewEntries(dim)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for d := range pts[i] {
			pts[i][d] = coord(i, d)
		}
		e.Append(int64(uint64(i+1)*0x9e3779b97f4a7c15|0x7ff0000000000000), pts[i])
	}
	return e, pts
}

// checkWidenedBound holds Theorem 1's link through the float32 store: the
// distance from each stored point to the query box widened by the slack is
// at most the distance, by the same operations, from the point as given to
// the box itself — through the leaf pass, and through a walk over a tree
// packed from the first half of the points with the rest pushed as a delta,
// where every point whose given distance is finite surfaces, no farther
// than that. r must be ordered, as a query box is.
func checkWidenedBound(t *testing.T, r Rect, e Entries, pts [][]float64) {
	t.Helper()
	true2 := make([]float64, len(pts))
	for i, p := range pts {
		true2[i] = r.SquaredMinDist(p)
	}
	w := r.widen(nil, nil, e.slack, nil)
	for i, d2 := range w.leafDists(nil, e, w.kernelBox(nil)) {
		if want := true2[i]; want == want && !(d2 <= want) {
			t.Fatalf("box %v..%v widened by %v, point %v stored as %v: leaf distance² %v, the given point's %v",
				r.Lo, r.Hi, e.slack, pts[i], e.Item(i).Point, d2, want)
		}
	}
	h := len(pts) / 2
	items := make([]Item, h)
	for i := range items {
		items[i] = Item{ID: int64(i), Point: pts[i]}
	}
	delta := NewEntries(e.dim)
	for i := h; i < len(pts); i++ {
		delta.Append(int64(i), pts[i])
	}
	it := BulkLoad(e.dim, Config{MaxEntries: 4}, items).NNIterOn(new(Frontier), r, delta, math.Inf(1), nil)
	surfaced := make(map[int64]bool)
	for _, nb := range pull(t, it, math.MaxInt) {
		if want := true2[nb.ID]; want == want && !(nb.Dist <= math.Sqrt(want)) {
			t.Fatalf("box %v..%v, point %v (delta=%v): walk distance %v, the given point's %v",
				r.Lo, r.Hi, pts[nb.ID], nb.ID >= int64(h), nb.Dist, math.Sqrt(want))
		}
		surfaced[nb.ID] = true
	}
	for i, want := range true2 {
		if want == want && !surfaced[int64(i)] {
			t.Fatalf("box %v..%v: point %v at distance² %v (delta=%v) never surfaced", r.Lo, r.Hi, pts[i], want, i >= h)
		}
	}
}

// ordered reports whether every side of r has Lo <= Hi, no NaN bound.
func (r Rect) ordered() bool {
	for i := range r.Lo {
		if !(r.Lo[i] <= r.Hi[i]) {
			return false
		}
	}
	return true
}

// TestLeafBoundsMatchBoxDist checks the one-pass leaf scan — the SSE2
// kernel on amd64, its Go twin elsewhere and under purego — against boxDist
// per point for Float64bits equality: every count 0–61, odd and even, at
// stride dim+2, a run of entries; random boxes, lo == hi sides and points on
// a face; and ±0, ±Inf and NaN in the points and in the box, where a box
// with a NaN or a Lo > Hi side sends every point through boxDist. Over each
// ordered box it also holds the stored points' distances to the widened box
// at or below the given points' distances to the box (checkWidenedBound):
// for points a float32 rounds, points a rounding moves across a face, and
// points beyond float32's range.
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
			pts, given := leafPointsOf(n, dim, func(i, d int) float64 {
				switch rng.Intn(8) {
				case 0:
					return lo[d] + (hi[d]-lo[d])*rng.Float64() // inside
				case 1:
					return lo[d] // on a face
				case 2:
					return hi[d]
				case 3:
					return math.Nextafter(lo[d], math.Inf(-1)) // just outside: float32 may round it in
				case 4:
					return hi[d] + 1e-7*rng.Float64()
				case 5:
					return []float64{1e300, -1e39, 1e-300, math.MaxFloat32}[rng.Intn(4)]
				default:
					return rng.NormFloat64() * 5
				}
			})
			checkLeafBounds(t, r, pts)
			checkWidenedBound(t, r, pts, given)
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
// distance Float64bits-equal to the square root of boxDist's over the query
// box widened once, by the larger of the tree's and the delta's slack (the
// points are rounded to float32, so both have one) — over an odd
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
			wq := q.widen(nil, nil, tr.slack, delta.slack)
			it := tr.NNIterOn(new(Frontier), q, delta, math.Inf(1), nil)
			seen := 0
			for _, nb := range pull(t, it, math.MaxInt) {
				i := int(nb.Slot) - tr.Len()
				if i < 0 {
					continue
				}
				want := math.Sqrt(wq.boxDist(delta.point(i)))
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
func leafCase(data []byte) (r Rect, pts Entries, given [][]float64, ok bool) {
	if len(data) < 3 {
		return Rect{}, Entries{}, nil, false
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
	pts, given = leafPointsOf(n, dim, func(int, int) float64 { return next() })
	return Rect{Lo: lo, Hi: hi}, pts, given, true
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
// and the raw kernel to its twin, on decoded leaves (leafCase), and over an
// ordered box the stored points' distances to the widened box at or below
// the given points' (checkWidenedBound). The seeds are
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
		if r, pts, given, ok := leafCase(data); ok {
			checkLeafBounds(t, r, pts)
			if r.ordered() {
				checkWidenedBound(t, r, pts, given)
			}
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
