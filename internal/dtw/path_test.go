package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warping/internal/ts"
)

func TestAlignCostMatchesDistance(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		x := randomSeries(r, 1+r.Intn(25))
		y := randomSeries(r, 1+r.Intn(25))
		d, p := Align(x, y)
		if !p.Valid(len(x), len(y)) {
			t.Fatalf("trial %d: invalid path %v", trial, p)
		}
		if math.Abs(p.Cost(x, y)-d) > 1e-9*(1+d) {
			t.Fatalf("trial %d: path cost %v != distance %v", trial, p.Cost(x, y), d)
		}
		if math.Abs(d-SquaredDistance(x, y)) > 1e-9*(1+d) {
			t.Fatalf("trial %d: Align %v != SquaredDistance %v", trial, d, SquaredDistance(x, y))
		}
	}
}

func TestAlignBandedConstraint(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(30)
		k := r.Intn(n)
		x := randomSeries(r, n)
		y := randomSeries(r, n)
		d, p := AlignBanded(x, y, k)
		if !p.Valid(n, n) {
			t.Fatalf("invalid path")
		}
		for _, pt := range p {
			if abs(pt.I-pt.J) > k {
				t.Fatalf("path leaves band: %v with k=%d", pt, k)
			}
		}
		if math.Abs(d-SquaredBanded(x, y, k)) > 1e-9*(1+d) {
			t.Fatalf("Align %v != SquaredBanded %v", d, SquaredBanded(x, y, k))
		}
	}
}

func TestPathLengthBounds(t *testing.T) {
	// max(n,m) <= L <= n+m-1 per the paper.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		m := 1 + r.Intn(30)
		x := randomSeries(r, n)
		y := randomSeries(r, m)
		_, p := Align(x, y)
		lo := n
		if m > lo {
			lo = m
		}
		return len(p) >= lo && len(p) <= n+m-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPathValidRejects(t *testing.T) {
	if (Path{}).Valid(1, 1) {
		t.Error("empty path valid")
	}
	if (Path{{0, 0}, {2, 1}}).Valid(3, 2) {
		t.Error("jump of 2 accepted")
	}
	if (Path{{0, 0}, {0, 0}, {1, 1}}).Valid(2, 2) {
		t.Error("stationary step accepted")
	}
	if (Path{{0, 0}, {1, 1}}).Valid(3, 2) {
		t.Error("path not reaching the end accepted")
	}
	if !(Path{{0, 0}, {1, 1}, {2, 1}}).Valid(3, 2) {
		t.Error("valid path rejected")
	}
}

func TestAlignSingletons(t *testing.T) {
	d, p := Align(ts.New(3), ts.New(5))
	if d != 4 {
		t.Errorf("d = %v", d)
	}
	if len(p) != 1 || p[0] != (PathPoint{0, 0}) {
		t.Errorf("p = %v", p)
	}
}

// Valid reports whether the path satisfies the monotonicity and continuity
// constraints of the paper for series of lengths n and m: starts at (0,0),
// ends at (n-1,m-1), and each step advances each coordinate by 0 or 1 (not
// both 0).
func (p Path) Valid(n, m int) bool {
	if len(p) == 0 {
		return false
	}
	if p[0] != (PathPoint{0, 0}) || p[len(p)-1] != (PathPoint{n - 1, m - 1}) {
		return false
	}
	for t := 1; t < len(p); t++ {
		di := p[t].I - p[t-1].I
		dj := p[t].J - p[t-1].J
		if di < 0 || di > 1 || dj < 0 || dj > 1 || (di == 0 && dj == 0) {
			return false
		}
	}
	return true
}

// Cost returns the squared cost of aligning x and y along the path.
func (p Path) Cost(x, y ts.Series) float64 {
	var sum float64
	for _, pt := range p {
		d := x[pt.I] - y[pt.J]
		sum += d * d
	}
	return sum
}
