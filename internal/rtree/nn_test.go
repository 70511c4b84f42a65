package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boxDistInputs are coordinates that stress the distance kernel: zeros of
// both signs, denormals, values whose squares underflow or overflow, and the
// non-finite ones.
var boxDistInputs = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3, -7.25,
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, -1e-200,
	1e300, -1e300, 1e154, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestBoxDistMatchesSquaredMinDist holds the branch-free leaf kernel
// Float64bits-equal to Rect.SquaredMinDist of the stored point, its float32
// coordinates widened to float64, on every input over a valid box (Lo <=
// Hi, NewRect's contract): random points, points inside the box and on its
// faces, and every combination of the stress coordinates — on the
// non-finite ones too, where builtin max yields a NaN the comparisons of the
// branchy form skip and boxDist hands the point to SquaredMinDist itself.
func TestBoxDistMatchesSquaredMinDist(t *testing.T) {
	check := func(lo, hi, p []float64) {
		t.Helper()
		r := Rect{Lo: lo, Hi: hi}
		s := stored(p...)
		want, got := r.SquaredMinDist(Entries{dim: len(s), w: s}.widened(make([]float64, len(s)), 0)), r.boxDist(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("box %v..%v point %v: boxDist %v (%#x), SquaredMinDist %v (%#x)",
				lo, hi, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20000; trial++ {
		dim := 1 + rng.Intn(9)
		lo, hi, p := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for i := range p {
			lo[i] = rng.NormFloat64() * 3
			hi[i] = lo[i] + rng.Float64()*2*float64(rng.Intn(2)) // a degenerate side half the time
			switch rng.Intn(5) {
			case 0:
				p[i] = lo[i] + (hi[i]-lo[i])*rng.Float64() // inside
			case 1:
				p[i] = lo[i] // on a face
			case 2:
				p[i] = hi[i]
			default:
				p[i] = rng.NormFloat64() * 5
			}
		}
		check(lo, hi, p)
	}
	// Every (lo, hi, v) triple of the stress values, alone and behind a
	// finite coordinate whose term the sum already carries.
	for _, lo := range boxDistInputs {
		for _, hi := range boxDistInputs {
			if !(lo <= hi) {
				continue
			}
			for _, v := range boxDistInputs {
				check([]float64{lo}, []float64{hi}, []float64{v})
				check([]float64{-1, lo}, []float64{1, hi}, []float64{2.5, v})
				check([]float64{lo, -1}, []float64{hi, 1}, []float64{v, -3})
			}
		}
	}
	// A NaN side of the query box, which NewRect's Lo <= Hi lets through.
	for _, v := range boxDistInputs {
		nan := math.NaN()
		check([]float64{nan}, []float64{1}, []float64{v})
		check([]float64{-1}, []float64{nan}, []float64{v})
		check([]float64{nan, 0}, []float64{nan, 1}, []float64{v, 2})
	}
}

// nnKey is one neighbour as the streams are compared: id and the bits of
// its distance.
type nnKey struct {
	id   int64
	dist uint64
}

// FuzzNNIterBound: over a random tree — bulk-loaded, paged, and a packed
// part with the rest pushed on as a flat delta — a random query box and any non-increasing bound schedule, the
// bounded stream is ascending, never yields a neighbour beyond the bound it
// was asked under, and is the unbounded stream cut where that first exceeds
// the bound in force: the same distances position by position, every
// (id, Float64bits(dist)) drawn from the unbounded stream's, and the end
// exactly where the next unbounded neighbour lies beyond the bound (ties with
// the bound are kept). Every neighbour comes with its position: its rank in
// VisitLeaves' order, or the tree's Len() plus its index among those pushed.
// Coordinates are small integers, so equal distances —
// among items, between items and nodes, and with the bound — are the common
// case. Each schedule byte moves the bound: keep it, drop it onto the
// distance of a neighbour a few places ahead, to the float just below that
// distance, or to a fraction of the way there.
func FuzzNNIterBound(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 5, 9, 0, 0, 13})
	f.Add(int64(3), []byte{3, 7, 0, 2, 1})
	f.Add(int64(4), []byte{41, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(int64(5), []byte{2, 2, 2, 6, 0, 255, 254, 253})
	f.Add(int64(6), []byte{61})
	f.Fuzz(func(t *testing.T, seed int64, schedule []byte) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(5)
		n := rng.Intn(400)
		items := make([]Item, n)
		for i := range items {
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(rng.Intn(9))
			}
			items[i] = Item{ID: int64(i), Point: p}
		}
		lo, hi := make([]float64, dim), make([]float64, dim)
		for j := range lo {
			lo[j] = float64(rng.Intn(12)-2) / 2
			hi[j] = lo[j] + float64(rng.Intn(5))/2
		}
		q := Rect{Lo: lo, Hi: hi}

		var want []nnKey
		for _, it := range items {
			want = append(want, nnKey{it.ID, math.Float64bits(math.Sqrt(q.SquaredMinDist(it.Point)))})
		}
		sortKeys := func(ks []nnKey) {
			slices.SortFunc(ks, func(a, b nnKey) int {
				return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id)) // non-negative floats order as their bits
			})
		}
		sortKeys(want)

		sp := testSpace(t, 512, 8)
		bulk, paged := buildPaged(t, sp, dim, items)
		h := rng.Intn(n + 1)
		half := BulkLoad(dim, Config{MaxEntries: 4 + rng.Intn(9)}, items[:h])
		// byPos lists the ids a stream holds by position: the tree's in leaf
		// order, then those pushed.
		byPos := func(tr *Tree, pushed []Item) []int64 {
			var ids []int64
			if err := tr.VisitLeaves(func(it Item) { ids = append(ids, it.ID) }); err != nil {
				t.Fatal(err)
			}
			for _, it := range pushed {
				ids = append(ids, it.ID)
			}
			return ids
		}
		type stream struct {
			start func(st *Stats) NNIter
			ids   []int64
		}
		streams := map[string]stream{
			"bulk": {func(st *Stats) NNIter { return bulk.NNIter(q, st) }, byPos(bulk, nil)},
			"delta": {func(st *Stats) NNIter {
				return half.NNIterOn(new(Frontier), q, entriesOf(dim, items[h:]), math.Inf(1), st)
			}, byPos(half, items[h:])},
			"paged": {func(st *Stats) NNIter { return paged.NNIter(q, st) }, byPos(paged, nil)},
		}
		for name, s := range streams {
			start := s.start
			var freeSt, st Stats
			free := pull(t, start(&freeSt), math.MaxInt)
			all := make([]nnKey, len(free))
			left := map[nnKey]int{} // the unbounded stream as a multiset
			for i, nb := range free {
				all[i] = nnKey{nb.ID, math.Float64bits(nb.Dist)}
				left[all[i]]++
				if i > 0 && nb.Dist < free[i-1].Dist {
					t.Fatalf("%s: unbounded stream descends at %d: %v after %v", name, i, nb.Dist, free[i-1].Dist)
				}
				if nb.Slot < 0 || int(nb.Slot) >= len(s.ids) || s.ids[nb.Slot] != nb.ID {
					t.Fatalf("%s: item %d surfaced at position %d", name, nb.ID, nb.Slot)
				}
			}
			sortKeys(all)
			if !slices.Equal(all, want) {
				t.Fatalf("%s: unbounded stream is not the brute-force ranking (%d vs %d items)", name, len(all), len(want))
			}

			it := start(&st)
			bound := math.Inf(1)
			for i := 0; ; i++ {
				if len(schedule) > 0 && len(free) > 0 {
					b := schedule[i%len(schedule)]
					ahead := free[min(i+int(b>>2)%8, len(free)-1)].Dist
					switch b & 3 {
					case 1:
						bound = min(bound, ahead)
					case 2:
						bound = min(bound, math.Nextafter(ahead, math.Inf(-1)))
					case 3:
						bound = min(bound, ahead*float64(b>>5+1)/8)
					}
				}
				nb, ok := it.Next(bound)
				within := i < len(free) && free[i].Dist <= bound
				if ok != within {
					t.Fatalf("%s pos %d of %d, bound %v: stream ok=%v (%+v), want %v", name, i, len(free), bound, ok, nb, within)
				}
				if !ok {
					if again, ok := it.Next(bound); ok {
						t.Fatalf("%s pos %d: stream resumed with %+v after its end", name, i, again)
					}
					break
				}
				k := nnKey{nb.ID, math.Float64bits(nb.Dist)}
				if nb.Dist != free[i].Dist || left[k] == 0 {
					t.Fatalf("%s pos %d bound %v: got %+v, unbounded stream has %+v there (%d of the key left)", name, i, bound, nb, free[i], left[k])
				}
				left[k]--
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			if st.FrontierPushes > freeSt.FrontierPushes || st.NodeAccesses > freeSt.NodeAccesses {
				t.Fatalf("%s: bounded walk cost %+v, unbounded %+v", name, st, freeSt)
			}
		}
	})
}

// nnPulls is how many neighbours one benchmark walk pulls: about a hum's
// candidates on the 500-song corpus.
const nnPulls = 800

// walk pulls up to nnPulls neighbours of q and returns how many it got.
// With final = +Inf the walk is unbounded. Otherwise the bound moves as a
// kNN's cutoff does: infinite while the first few results are gathered, then
// a tenth above final — the distance of q's nnPulls-th neighbour; in eight
// dimensions that ball holds twice the points — and shrinking linearly onto
// it, so the stream ends by itself at about nnPulls.
func walk(tr *Tree, q Rect, final float64, st *Stats) int {
	it := tr.NNIter(q, st)
	defer it.Close()
	for pulled := 0; pulled < nnPulls; pulled++ {
		bound := math.Inf(1)
		if pulled >= 8 {
			bound = final * (1.1 - 0.1*float64(pulled)/nnPulls)
		}
		if _, ok := it.Next(bound); !ok {
			return pulled
		}
	}
	return nnPulls
}

// nnBenchTree is BenchmarkNNIter's corpus: 9 200 points in 8 dimensions (the
// phrase count and feature width of the 500-song benchmark corpus) around a
// few dozen cluster centres, boxes around points of it, and for each box the
// distance of its nnPulls-th neighbour.
func nnBenchTree(tb testing.TB, capacity int) (tr *Tree, boxes []Rect, finals []float64) {
	const dim, n = 8, 9200
	rng := rand.New(rand.NewSource(9))
	centres := make([][]float64, 40)
	for i := range centres {
		centres[i] = make([]float64, dim)
		for j := range centres[i] {
			centres[i][j] = rng.NormFloat64() * 4
		}
	}
	point := func() []float64 {
		c := centres[rng.Intn(len(centres))]
		p := make([]float64, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		return p
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Point: point()}
	}
	tr = BulkLoad(dim, Config{MaxEntries: capacity}, items)
	for i := 0; i < 64; i++ {
		lo, hi := point(), make([]float64, dim)
		for j := range lo {
			hi[j] = lo[j] + 0.4
		}
		boxes = append(boxes, Rect{Lo: lo, Hi: hi})
		finals = append(finals, pull(tb, tr.NNIter(boxes[i], nil), nnPulls)[nnPulls-1].Dist)
	}
	return tr, boxes, finals
}

// TestNNIterSteadyStateAllocs: once the pooled frontier is warm a bounded
// walk allocates nothing — no iterator, no entry, no point.
func TestNNIterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	tr, boxes, finals := nnBenchTree(t, 60)
	var st Stats
	i := 0
	next := func() {
		if got := walk(tr, boxes[i%len(boxes)], finals[i%len(boxes)], &st); got < nnPulls-1 {
			t.Fatalf("box %d: the bounded walk ended after %d of %d pulls", i%len(boxes), got, nnPulls)
		}
		i++
	}
	for range boxes {
		next() // grow the pooled frontier to its steady size
	}
	if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
		t.Errorf("a bounded walk allocates %v times, want 0", allocs)
	}
}

// BenchmarkNNIter times the best-first walker alone on the benchmark corpus'
// shape at the RAM and paged leaf capacities: nnPulls neighbours unbounded
// (the frontier takes every entry of every opened leaf), and the same pulls
// under a kNN-like shrinking bound. frontier_pushes/op and pulls/op are exact
// counts.
func BenchmarkNNIter(b *testing.B) {
	for _, capacity := range []int{30, 60} {
		tr, boxes, finals := nnBenchTree(b, capacity)
		for _, bound := range []string{"inf", "shrinking"} {
			b.Run(fmt.Sprintf("cap=%d/bound=%s", capacity, bound), func(b *testing.B) {
				var st Stats
				pulls := 0
				for i := 0; i < b.N; i++ {
					final := math.Inf(1)
					if bound == "shrinking" {
						final = finals[i%len(boxes)]
					}
					pulls += walk(tr, boxes[i%len(boxes)], final, &st)
				}
				b.ReportMetric(float64(st.FrontierPushes)/float64(b.N), "frontier_pushes/op")
				b.ReportMetric(float64(pulls)/float64(b.N), "pulls/op")
			})
		}
	}
}
