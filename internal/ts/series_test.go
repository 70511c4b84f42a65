package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewCopies(t *testing.T) {
	vals := []float64{1, 2, 3}
	s := New(vals...)
	vals[0] = 99
	if s[0] != 1 {
		t.Fatalf("New did not copy: s[0] = %v", s[0])
	}
}

func TestConstant(t *testing.T) {
	s := Constant(5, 3.5)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	for i, v := range s {
		if v != 3.5 {
			t.Fatalf("s[%d] = %v, want 3.5", i, v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(1, 2, 3)
	c := s.Clone()
	c[0] = 42
	if s[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestMeanMinMaxStd(t *testing.T) {
	s := New(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := s.Std(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestEmptyStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Error("Mean of empty should be 0")
	}
	if s.Std() != 0 {
		t.Error("Std of empty should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Min of empty should panic")
		}
	}()
	_ = s.Min()
}

func TestZeroMean(t *testing.T) {
	s := New(10, 20, 30)
	z := s.ZeroMean()
	if !almostEqual(z.Mean(), 0, 1e-12) {
		t.Errorf("ZeroMean mean = %v", z.Mean())
	}
	// Original untouched.
	if s[0] != 10 {
		t.Error("ZeroMean mutated input")
	}
}

func TestZNormalize(t *testing.T) {
	s := New(1, 2, 3, 4, 5)
	z := s.ZNormalize()
	if !almostEqual(z.Mean(), 0, 1e-12) || !almostEqual(z.Std(), 1, 1e-12) {
		t.Errorf("ZNormalize mean=%v std=%v", z.Mean(), z.Std())
	}
	// Constant series: no blow-up.
	c := Constant(4, 7).ZNormalize()
	for _, v := range c {
		if v != 0 {
			t.Errorf("ZNormalize of constant = %v, want 0", v)
		}
	}
}

func TestShift(t *testing.T) {
	s := New(1, 2, 3)
	if got := s.Shift(1); !got.Equal(New(2, 3, 4)) {
		t.Errorf("Shift = %v", got)
	}
	if !s.Equal(New(1, 2, 3)) {
		t.Errorf("Shift changed its input: %v", s)
	}
}

func TestDist(t *testing.T) {
	x := New(0, 0, 0)
	y := New(3, 4, 0)
	if got := Dist(x, y); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := SquaredDist(x, y); !almostEqual(got, 25, 1e-12) {
		t.Errorf("SquaredDist = %v, want 25", got)
	}
}

func TestDistLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Dist(New(1), New(1, 2))
}

func TestUpsample(t *testing.T) {
	s := New(1, 2)
	u := s.Upsample(3)
	if !u.Equal(New(1, 1, 1, 2, 2, 2)) {
		t.Errorf("Upsample = %v", u)
	}
	if got := s.Upsample(1); !got.Equal(s) {
		t.Errorf("Upsample(1) = %v", got)
	}
}

func TestStretchMatchesUpsample(t *testing.T) {
	s := New(3, 1, 4, 1, 5)
	for w := 1; w <= 4; w++ {
		a := s.Upsample(w)
		b := s.Stretch(len(s) * w)
		if !a.Equal(b) {
			t.Errorf("w=%d: Stretch %v != Upsample %v", w, b, a)
		}
	}
}

func TestStretchShrink(t *testing.T) {
	s := New(1, 2, 3, 4, 5, 6)
	g := s.Stretch(3)
	if len(g) != 3 {
		t.Fatalf("len = %d", len(g))
	}
	// z_i = s[ceil(i*6/3)] for i=1..3 -> s[2], s[4], s[6] (1-based).
	if !g.Equal(New(2, 4, 6)) {
		t.Errorf("Stretch shrink = %v, want [2 4 6]", g)
	}
}

func TestStretchIdentity(t *testing.T) {
	s := New(9, 8, 7)
	if got := s.Stretch(3); !got.Equal(s) {
		t.Errorf("identity Stretch = %v", got)
	}
}

func TestNormalFormInvariance(t *testing.T) {
	// The normal form must be identical for a shifted, uniformly
	// time-scaled copy of a piecewise-constant series.
	s := New(1, 1, 5, 5, 3, 3, 3, 3)
	variant := s.Upsample(3).Shift(12.5)
	const m = 48
	a := s.NormalForm(m)
	b := variant.NormalForm(m)
	if !a.ApproxEqual(b, 1e-9) {
		t.Errorf("normal forms differ:\n%v\n%v", a, b)
	}
}

func TestGCDLCM(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm int }{
		{12, 18, 6, 36},
		{7, 13, 1, 91},
		{0, 5, 5, 0},
		{-4, 6, 2, 12},
		{1, 1, 1, 1},
	}
	for _, c := range cases {
		if g := GCD(c.a, c.b); g != c.gcd {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, g, c.gcd)
		}
		if l := LCM(c.a, c.b); l != c.lcm {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, l, c.lcm)
		}
	}
}

func TestEqualApproxEqual(t *testing.T) {
	a := New(1, 2)
	if a.Equal(New(1)) {
		t.Error("Equal with different lengths")
	}
	if !a.ApproxEqual(New(1.0001, 2.0001), 0.001) {
		t.Error("ApproxEqual should pass within tol")
	}
	if a.ApproxEqual(New(1.1, 2), 0.001) {
		t.Error("ApproxEqual should fail outside tol")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if s := New(1, 2, 3).String(); s == "" {
		t.Error("empty String()")
	}
	if s := (Series{}).String(); s != "Series(len=0)" {
		t.Errorf("String of empty = %q", s)
	}
}

func randomSeries(r *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = r.NormFloat64() * 10
	}
	return s
}

// Property: zero-mean is idempotent and shift-invariant.
func TestPropZeroMeanShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		shift := r.NormFloat64() * 100
		s := randomSeries(r, n)
		a := s.ZeroMean()
		b := s.Shift(shift).ZeroMean()
		return a.ApproxEqual(b, 1e-6*(1+math.Abs(shift)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Upsample(w) multiplies length by w and preserves the multiset of
// distinct transitions.
func TestPropUpsampleLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		w := 1 + r.Intn(8)
		s := randomSeries(r, n)
		u := s.Upsample(w)
		if len(u) != n*w {
			return false
		}
		for i, v := range u {
			if v != s[i/w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist is a metric on equal-length series (symmetry + triangle).
func TestPropDistMetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		x, y, z := randomSeries(r, n), randomSeries(r, n), randomSeries(r, n)
		dxy, dyx := Dist(x, y), Dist(y, x)
		if !almostEqual(dxy, dyx, 1e-9) {
			return false
		}
		return Dist(x, z) <= dxy+Dist(y, z)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Stretch(m) then Stretch back to a multiple preserves values for
// piecewise-constant upsampled inputs.
func TestPropStretchConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		w := 1 + r.Intn(5)
		s := randomSeries(r, n)
		// Stretch to n*w then back to n must reproduce s exactly.
		return s.Stretch(n * w).Stretch(n).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Equal reports whether two series are identical in length and values.
func (s Series) Equal(t Series) bool {
	if len(s) != len(t) {
		return false
	}
	for i, v := range s {
		if v != t[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether two series agree element-wise within tol.
func (s Series) ApproxEqual(t Series, tol float64) bool {
	if len(s) != len(t) {
		return false
	}
	for i, v := range s {
		if math.Abs(v-t[i]) > tol {
			return false
		}
	}
	return true
}
