package dtw

import (
	"math"
	"math/rand"
	"testing"

	"warping/internal/ts"
)

func randSeries(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s
}

// Workspace-backed banded DTW must agree exactly with the allocating form
// and with SquaredBanded, including across reuse (dirty buffers).
func TestWorkspaceSquaredBandedWithinMatches(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	w := NewWorkspace()
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(64)
		x, y := randSeries(r, n), randSeries(r, n)
		k := r.Intn(n + 2) // includes k >= n-1
		exact := SquaredBanded(x, y, k)
		cutoff2 := exact * (0.5 + r.Float64())
		got, ok := w.SquaredBandedWithin(x, y, k, cutoff2)
		if ok != (exact <= cutoff2) && math.Abs(exact-cutoff2) > 1e-9 {
			t.Fatalf("trial %d: ok=%v exact=%v cutoff2=%v", trial, ok, exact, cutoff2)
		}
		if ok && math.Abs(got-exact) > 1e-9*(1+exact) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, exact)
		}
		if !ok && got <= cutoff2 {
			t.Fatalf("trial %d: abandoned but returned %v <= cutoff2 %v", trial, got, cutoff2)
		}
		// The allocating form must agree bit-for-bit.
		got2, ok2 := SquaredBandedWithin(x, y, k, cutoff2)
		if ok != ok2 || got != got2 {
			t.Fatalf("trial %d: workspace (%v,%v) vs allocating (%v,%v)", trial, got, ok, got2, ok2)
		}
	}
}

// The reversed-role LB_Keogh must lower-bound banded DTW (Lemma 2 applied
// with the roles of query and candidate swapped) — the exactness of the
// two-pass cascade rests on this.
func TestReversedLBKeoghLowerBounds(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(64)
		q, x := randSeries(r, n), randSeries(r, n)
		k := r.Intn(n)
		exact := SquaredBanded(x, q, k)
		env := NewEnvelope(x, k)
		lb, ok := SquaredDistToEnvelopeWithin(q, env, math.MaxFloat64)
		if !ok {
			t.Fatalf("trial %d: infinite cutoff abandoned", trial)
		}
		if lb > exact+1e-9 {
			t.Fatalf("trial %d (n=%d k=%d): reversed LB %v > exact %v", trial, n, k, lb, exact)
		}
		// Early abandoning must preserve the no-false-dismissal property:
		// if the bound abandons at cutoff2, the exact distance exceeds it.
		cutoff2 := exact * 0.99
		if _, ok := SquaredDistToEnvelopeWithin(q, env, cutoff2); !ok && exact <= cutoff2 {
			t.Fatalf("trial %d: false dismissal at cutoff2=%v exact=%v", trial, cutoff2, exact)
		}
	}
}

func TestSquaredDistToEnvelopeWithin(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(50)
		x, y := randSeries(r, n), randSeries(r, n)
		k := r.Intn(n)
		e := NewEnvelope(y, k)
		want := SquaredDistToEnvelope(x, e)
		got, ok := SquaredDistToEnvelopeWithin(x, e, math.MaxFloat64)
		if !ok || math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("trial %d: got (%v,%v), want %v", trial, got, ok, want)
		}
		if want > 0 {
			if v, ok := SquaredDistToEnvelopeWithin(x, e, want*0.5); ok {
				t.Fatalf("trial %d: cutoff half of %v not abandoned (returned %v)", trial, want, v)
			}
		}
	}
	if _, ok := SquaredDistToEnvelopeWithin(ts.Series{1}, Envelope{Lower: ts.Series{1}, Upper: ts.Series{1}}, -1); ok {
		t.Error("negative cutoff must abandon immediately")
	}
}

// Table-driven contract tests for the BandRadius/WarpingWidth guards.
func TestBandRadiusWarpingWidthEdgeCases(t *testing.T) {
	radiusCases := []struct {
		n     int
		delta float64
		want  int
	}{
		{0, 0.5, 0}, // n = 0: no band, not a negative radius
		{-3, 1, 0},  // negative n guarded
		{0, 1, 0},   // n = 0 with full width
		{1, 0, 0},   // delta = 0: Euclidean
		{1, 1, 0},   // n = 1: n-1 = 0
		{128, 0, 0}, // delta = 0 at real length
		{128, 1, 127},
		{128, -0.5, 0},
		{128, 2.5, 127},
		{128, 0.1, 5},
		{128, math.NaN(), 0},
	}
	for _, tc := range radiusCases {
		if got := BandRadius(tc.n, tc.delta); got != tc.want {
			t.Errorf("BandRadius(%d, %v) = %d, want %d", tc.n, tc.delta, got, tc.want)
		}
	}

	widthCases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 0}, // the old NaN case: WarpingWidth(0, k) divided by zero
		{0, 5, 0},
		{-1, 3, 0},
		{1, 0, 1},
		{128, -2, 1.0 / 128}, // negative k clamped to 0
		{128, 0, 1.0 / 128},
		{128, 5, 11.0 / 128},
	}
	for _, tc := range widthCases {
		got := WarpingWidth(tc.n, tc.k)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("WarpingWidth(%d, %d) = %v, want finite", tc.n, tc.k, got)
			continue
		}
		if math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("WarpingWidth(%d, %d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}

	// Round trip: while the band is narrower than the series the
	// conversion inverts exactly; wider bands clamp to full DTW.
	for _, n := range []int{1, 2, 3, 64, 128, 129} {
		for k := 0; k <= n-1; k++ {
			got := BandRadius(n, WarpingWidth(n, k))
			want := k
			if 2*k+1 >= n {
				want = n - 1
			}
			if got != want {
				t.Errorf("round trip n=%d k=%d: got %d, want %d", n, k, got, want)
			}
		}
	}
	// Degenerate round trips stay in range.
	for _, n := range []int{0, 1} {
		for _, delta := range []float64{0, 1} {
			k := BandRadius(n, delta)
			if k < 0 || (n > 0 && k > n-1) {
				t.Errorf("BandRadius(%d, %v) = %d out of range", n, delta, k)
			}
			if w := WarpingWidth(n, k); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Errorf("WarpingWidth(%d, %d) = %v", n, k, w)
			}
		}
	}
}

// Steady-state verification does zero heap allocations: the served chain
// LB_Keogh → LB_KeoghEC (on a byte record and on a series) → LB_Improved →
// banded DTW, at the serving length with the bands of δ = 0.1 and 0.2, and
// at a length with a scalar tail, over one reused workspace.
func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	w := NewWorkspace()
	for _, c := range []struct{ n, k int }{{128, 5}, {128, 12}, {100, 5}} {
		q, x := randSeries(r, c.n), randSeries(r, c.n)
		env := NewEnvelope(q, c.k)
		rec := make([]byte, c.n)
		r.Read(rec)
		chain := func() {
			fwd, _ := SquaredDistToEnvelopeWithin(x, env, math.MaxFloat64)
			w.SquaredLBKeoghECBytesWithin(q, rec, -60, c.k, math.MaxFloat64)
			w.SquaredLBKeoghECWithin(q, x, c.k, math.MaxFloat64)
			w.SquaredLBImprovedWithin(q, x, env, c.k, fwd, math.MaxFloat64)
			w.SquaredBandedWithin(x, q, c.k, math.MaxFloat64)
		}
		chain() // grow the buffers
		if allocs := testing.AllocsPerRun(100, chain); allocs != 0 {
			t.Errorf("n=%d k=%d: verification cascade allocates %v per run, want 0", c.n, c.k, allocs)
		}
	}
}

// TestWithinCutoffIsInclusive puts a candidate's squared distance exactly on
// the cutoff, where the package's contract says it matches: LB_Keogh's
// scalar tail (n mod 16 != 0, the last element alone outside the envelope),
// over a float64 series and over a byte record, and the band-0 Euclidean
// path of SquaredBandedWithin. Each must return the distance with ok =
// true; one that abandoned on reaching the cutoff would dismiss a true match.
func TestWithinCutoffIsInclusive(t *testing.T) {
	const n, cutoff2 = 19, 4.0
	x, b := make(ts.Series, n), make([]byte, n)
	x[n-1], b[n-1] = 2, 2 // (2 - 0)² = 4: all of the distance lies in the tail
	env := NewEnvelope(make(ts.Series, n), 0)
	if d, ok := SquaredDistToEnvelopeWithin(x, env, cutoff2); !ok || d != cutoff2 {
		t.Errorf("SquaredDistToEnvelopeWithin at the cutoff: %v, %v; want %v, true", d, ok, cutoff2)
	}
	if d, ok := SquaredBytesToEnvelopeWithin(b, 0, env, cutoff2); !ok || d != cutoff2 {
		t.Errorf("SquaredBytesToEnvelopeWithin at the cutoff: %v, %v; want %v, true", d, ok, cutoff2)
	}
	w := NewWorkspace()
	if d, ok := w.SquaredBandedWithin(x, make(ts.Series, n), 0, cutoff2); !ok || d != cutoff2 {
		t.Errorf("SquaredBandedWithin at band 0 at the cutoff: %v, %v; want %v, true", d, ok, cutoff2)
	}
}
