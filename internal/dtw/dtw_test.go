package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warping/internal/ts"
)

// naiveDTW is a straightforward full-matrix reference implementation of the
// (optionally banded) squared DTW distance.
func naiveDTW(x, y ts.Series, k int) float64 {
	n, m := len(x), len(y)
	const inf = math.MaxFloat64
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if k >= 0 && abs(i-j) > k {
				continue
			}
			d := x[i] - y[j]
			d *= d
			switch {
			case i == 0 && j == 0:
				cost[i][j] = d
			case i == 0:
				if cost[i][j-1] < inf {
					cost[i][j] = d + cost[i][j-1]
				}
			case j == 0:
				if cost[i-1][j] < inf {
					cost[i][j] = d + cost[i-1][j]
				}
			default:
				best := cost[i-1][j-1]
				if cost[i-1][j] < best {
					best = cost[i-1][j]
				}
				if cost[i][j-1] < best {
					best = cost[i][j-1]
				}
				if best < inf {
					cost[i][j] = d + best
				}
			}
		}
	}
	return cost[n-1][m-1]
}

func randomSeries(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	for i := range s {
		s[i] = r.NormFloat64() * 5
	}
	return s
}

func randomWalk(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s
}

func TestDTWIdentical(t *testing.T) {
	x := ts.New(1, 2, 3, 4)
	if d := Distance(x, x); d != 0 {
		t.Errorf("Distance(x,x) = %v", d)
	}
}

func TestDTWKnownValue(t *testing.T) {
	// Classic example: x=[1,2,3], y=[1,2,2,3]. DTW can align the repeated
	// 2 with zero extra cost.
	x := ts.New(1, 2, 3)
	y := ts.New(1, 2, 2, 3)
	if d := SquaredDistance(x, y); d != 0 {
		t.Errorf("SquaredDistance = %v, want 0", d)
	}
	// Euclidean-style mismatch still costs.
	z := ts.New(1, 2, 4)
	if d := SquaredDistance(x, z); d != 1 {
		t.Errorf("SquaredDistance = %v, want 1", d)
	}
}

func TestDTWSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		x := randomSeries(r, 1+r.Intn(30))
		y := randomSeries(r, 1+r.Intn(30))
		if d1, d2 := SquaredDistance(x, y), SquaredDistance(y, x); math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
	}
}

func TestDTWMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		x := randomSeries(r, 1+r.Intn(40))
		y := randomSeries(r, 1+r.Intn(40))
		got := SquaredDistance(x, y)
		want := naiveDTW(x, y, -1)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestBandedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		k := r.Intn(n + 2)
		x := randomSeries(r, n)
		y := randomSeries(r, n)
		got := SquaredBanded(x, y, k)
		want := naiveDTW(x, y, k)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d k=%d): got %v want %v", trial, n, k, got, want)
		}
	}
}

func TestBandedZeroIsEuclidean(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	x := randomSeries(r, 32)
	y := randomSeries(r, 32)
	if got, want := SquaredBanded(x, y, 0), ts.SquaredDist(x, y); math.Abs(got-want) > 1e-9 {
		t.Errorf("k=0: got %v want %v", got, want)
	}
}

func TestBandedFullIsUnconstrained(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	x := randomSeries(r, 24)
	y := randomSeries(r, 24)
	if got, want := SquaredBanded(x, y, 23), SquaredDistance(x, y); math.Abs(got-want) > 1e-9 {
		t.Errorf("full band: got %v want %v", got, want)
	}
}

// Property: the banded distance is non-increasing in k and always at least
// the unconstrained DTW distance.
func TestPropBandMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		x := randomSeries(r, n)
		y := randomSeries(r, n)
		full := SquaredDistance(x, y)
		last := math.MaxFloat64
		for k := 0; k < n; k++ {
			d := SquaredBanded(x, y, k)
			if d > last+1e-9 || d < full-1e-9 {
				return false
			}
			last = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBandRadius(t *testing.T) {
	cases := []struct {
		n     int
		delta float64
		want  int
	}{
		{100, 0.05, 2}, // (0.05*100-1)/2 = 2
		{100, 0.1, 4},
		{100, 0.2, 9},
		{128, 0.1, 5},
		{100, 0, 0},
		{100, -1, 0},
		{100, 1, 99},
		{100, 2, 99},
		{10, 0.01, 0},
	}
	for _, c := range cases {
		if got := BandRadius(c.n, c.delta); got != c.want {
			t.Errorf("BandRadius(%d, %v) = %d, want %d", c.n, c.delta, got, c.want)
		}
	}
}

func TestWarpingWidthRoundTrip(t *testing.T) {
	n := 256
	for _, delta := range []float64{0.02, 0.05, 0.1, 0.2} {
		k := BandRadius(n, delta)
		w := WarpingWidth(n, k)
		if w > delta+1e-12 {
			t.Errorf("delta=%v: width %v exceeds requested", delta, w)
		}
	}
}

func TestUTWUpsampleInvariance(t *testing.T) {
	x := ts.New(1, 5, 2, 7)
	for w := 1; w <= 5; w++ {
		if d := UTW(x, x.Upsample(w)); d > 1e-12 {
			t.Errorf("UTW(x, upsample %d) = %v", w, d)
		}
	}
}

func TestUTWEqualLengthIsScaledEuclidean(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	x := randomSeries(r, 16)
	y := randomSeries(r, 16)
	// For equal lengths, Definition 2 reduces to sum (x_i-y_i)^2 * n / n^2.
	want := ts.SquaredDist(x, y) / 16
	if got := SquaredUTW(x, y); math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestUTWSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	x := randomSeries(r, 6)
	y := randomSeries(r, 15)
	if d1, d2 := SquaredUTW(x, y), SquaredUTW(y, x); math.Abs(d1-d2) > 1e-9 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
}

func TestNormalizedDistanceInvariance(t *testing.T) {
	// Shifting and uniformly scaling the tempo of one series must not
	// change the normalized distance.
	x := ts.New(60, 60, 62, 62, 64, 64, 64, 64, 62, 62, 60, 60, 60, 60, 60, 60)
	y := ts.New(60, 62, 64, 64, 65, 65, 64, 64, 62, 60, 62, 62, 60, 60, 60, 60)
	const m = 64
	base := NormalizedDistance(x, y, m, 0.1)
	warped := NormalizedDistance(x.Upsample(2).Shift(12), y, m, 0.1)
	if math.Abs(base-warped) > 1e-9 {
		t.Errorf("normalized distance not invariant: %v vs %v", base, warped)
	}
}

func BenchmarkDTWFull256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomWalk(r, 256)
	y := randomWalk(r, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredDistance(x, y)
	}
}

func BenchmarkDTWBanded256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomWalk(r, 256)
	y := randomWalk(r, 256)
	k := BandRadius(256, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredBanded(x, y, k)
	}
}

func TestUTWPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SquaredUTW(ts.Series{}, ts.New(1))
}

func TestBandedPanics(t *testing.T) {
	cases := []func(){
		func() { SquaredBanded(ts.Series{}, ts.Series{}, 1) },
		func() { SquaredBanded(ts.New(1), ts.New(1, 2), 1) },
		func() { SquaredBanded(ts.New(1), ts.New(2), -1) },
		func() { SquaredDistance(ts.Series{}, ts.New(1)) },
		func() { SquaredBandedWithin(ts.Series{}, ts.Series{}, 1, 5) },
		func() { SquaredBandedWithin(ts.New(1), ts.New(1, 2), 1, 5) },
		func() { SquaredBandedWithin(ts.New(1), ts.New(2), -1, 5) },
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
