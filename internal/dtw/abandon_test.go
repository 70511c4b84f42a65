package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warping/internal/ts"
)

// SquaredBandedWithin is Workspace.SquaredBandedWithin in a fresh
// workspace: the form the tests call when they reuse no DP rows.
func SquaredBandedWithin(x, y ts.Series, k int, cutoff2 float64) (float64, bool) {
	var w Workspace
	return w.SquaredBandedWithin(x, y, k, cutoff2)
}

func TestWithinExactWhenUnderCutoff(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(50)
		k := r.Intn(n)
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		exact := SquaredBanded(x, y, k)
		got, ok := SquaredBandedWithin(x, y, k, exact*1.01+1)
		if !ok {
			t.Fatalf("trial %d: abandoned despite sufficient cutoff", trial)
		}
		if math.Abs(got-exact) > 1e-9*(1+exact) {
			t.Fatalf("trial %d: got %v want %v", trial, got, exact)
		}
	}
}

func TestWithinAbandonsWhenOverCutoff(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(50)
		k := r.Intn(n)
		x := randomWalk(r, n)
		y := randomWalk(r, n).Shift(100) // guaranteed far apart
		exact := SquaredBanded(x, y, k)
		cutoff := exact / 10
		got, ok := SquaredBandedWithin(x, y, k, cutoff)
		if ok {
			t.Fatalf("trial %d: did not abandon (exact %v, cutoff %v)", trial, exact, cutoff)
		}
		if got <= cutoff {
			t.Fatalf("trial %d: abandon value %v not above cutoff %v", trial, got, cutoff)
		}
	}
}

// Property: the (value, ok) contract holds for arbitrary cutoffs — ok iff
// exact <= cutoff, and when ok the value is exact.
func TestPropWithinContract(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		k := r.Intn(n)
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		exact := SquaredBanded(x, y, k)
		cutoff := exact * (r.Float64() * 2) // sometimes below, sometimes above
		got, ok := SquaredBandedWithin(x, y, k, cutoff)
		if ok != (exact <= cutoff+1e-12) {
			// Tolerate the exact-boundary case.
			if math.Abs(exact-cutoff) > 1e-9 {
				return false
			}
		}
		if ok && math.Abs(got-exact) > 1e-9*(1+exact) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWithinZeroBand(t *testing.T) {
	x := ts.New(1, 2, 3)
	y := ts.New(1, 2, 5)
	if d, ok := SquaredBandedWithin(x, y, 0, 10); !ok || d != 4 {
		t.Errorf("got %v %v", d, ok)
	}
	if _, ok := SquaredBandedWithin(x, y, 0, 3); ok {
		t.Error("should abandon at cutoff 3")
	}
}

func TestWithinNegativeCutoff(t *testing.T) {
	x := ts.New(1, 2)
	if _, ok := SquaredBandedWithin(x, x, 1, -1); ok {
		t.Error("negative cutoff should never succeed")
	}
}

func BenchmarkBandedVsWithin(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomWalk(r, 256)
	y := randomWalk(r, 256).Shift(50) // far apart: abandon helps
	k := BandRadius(256, 0.1)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SquaredBanded(x, y, k)
		}
	})
	b.Run("abandon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SquaredBandedWithin(x, y, k, 100)
		}
	})
}
