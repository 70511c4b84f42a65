package gridfile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPoint(r *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = (r.Float64() - 0.5) * 100 // includes negatives
	}
	return p
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestInsertAndLen(t *testing.T) {
	g := New(3, 10)
	for i := 0; i < 50; i++ {
		g.Insert(Item{ID: int64(i), Point: []float64{float64(i), 0, 0}})
	}
	if g.Len() != 50 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestRangeSearchMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := New(4, 8)
	points := make([][]float64, 800)
	for i := range points {
		points[i] = randomPoint(r, 4)
		g.Insert(Item{ID: int64(i), Point: points[i]})
	}
	for trial := 0; trial < 25; trial++ {
		q := randomPoint(r, 4)
		radius := r.Float64() * 30
		got := g.RangeSearchBox(q, q, radius, nil)
		gotIDs := map[int64]bool{}
		for _, it := range got {
			gotIDs[it.ID] = true
		}
		want := 0
		for id, p := range points {
			if euclid(q, p) <= radius {
				want++
				if !gotIDs[int64(id)] {
					t.Fatalf("missing id %d", id)
				}
			}
		}
		if want != len(got) {
			t.Fatalf("got %d, want %d", len(got), want)
		}
	}
}

func TestRangeSearchBoxMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := New(3, 5)
	points := make([][]float64, 500)
	for i := range points {
		points[i] = randomPoint(r, 3)
		g.Insert(Item{ID: int64(i), Point: points[i]})
	}
	for trial := 0; trial < 20; trial++ {
		lo := randomPoint(r, 3)
		hi := make([]float64, 3)
		for i := range hi {
			hi[i] = lo[i] + r.Float64()*20
		}
		radius := r.Float64() * 10
		got := g.RangeSearchBox(lo, hi, radius, nil)
		want := 0
		for _, p := range points {
			if math.Sqrt(squaredDistToBox(p, lo, hi)) <= radius {
				want++
			}
		}
		if want != len(got) {
			t.Fatalf("got %d, want %d", len(got), want)
		}
	}
}

func TestStats(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := New(2, 5)
	for i := 0; i < 1000; i++ {
		g.Insert(Item{ID: int64(i), Point: randomPoint(r, 2)})
	}
	var s Stats
	g.RangeSearchBox([]float64{0, 0}, []float64{0, 0}, 3, &s)
	if s.CellProbes == 0 {
		t.Error("no cell probes recorded")
	}
	if s.BucketAccesses == 0 {
		t.Error("no bucket accesses recorded")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	g := New(2, 1)
	g.Insert(Item{ID: 1, Point: []float64{-0.5, -0.5}})
	g.Insert(Item{ID: 2, Point: []float64{0.5, 0.5}})
	p := []float64{-0.5, -0.5}
	got := g.RangeSearchBox(p, p, 0.1, nil)
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("got %v", got)
	}
}

func TestPropGridMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Keep cell counts bounded: with cellSize >= 2 and radius <= 20
		// in <= 3 dims a query probes at most ~(40/2)^3 cells.
		dim := 1 + r.Intn(3)
		g := New(dim, 2+r.Float64()*20)
		n := 1 + r.Intn(200)
		points := make([][]float64, n)
		for i := range points {
			points[i] = randomPoint(r, dim)
			g.Insert(Item{ID: int64(i), Point: points[i]})
		}
		q := randomPoint(r, dim)
		radius := r.Float64() * 20
		got := g.RangeSearchBox(q, q, radius, nil)
		want := 0
		for _, p := range points {
			if euclid(q, p) <= radius {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 1) },
		func() { New(2, 0) },
		func() { New(2, 1).Insert(Item{Point: []float64{1}}) },
		func() { New(2, 1).RangeSearchBox([]float64{1}, []float64{1}, 1, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
