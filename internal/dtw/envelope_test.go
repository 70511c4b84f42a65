package dtw

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"warping/internal/ts"
)

// Contains reports whether x lies pointwise within the envelope, allowing a
// tolerance tol for floating-point slack.
func (e Envelope) Contains(x ts.Series, tol float64) bool {
	if len(x) != len(e.Lower) {
		return false
	}
	for i, v := range x {
		if v < e.Lower[i]-tol || v > e.Upper[i]+tol {
			return false
		}
	}
	return true
}

func TestEnvelopeBasics(t *testing.T) {
	x := ts.New(3, 1, 4, 1, 5)
	e := NewEnvelope(x, 1)
	if !e.Valid() {
		t.Fatal("envelope invalid")
	}
	if !e.Contains(x, 0) {
		t.Fatal("envelope must contain its own series")
	}
	wantLo := ts.New(1, 1, 1, 1, 1)
	wantHi := ts.New(3, 4, 4, 5, 5)
	if !slices.Equal(e.Lower, wantLo) || !slices.Equal(e.Upper, wantHi) {
		t.Errorf("envelope = %v / %v", e.Lower, e.Upper)
	}
}

func TestDistToEnvelopeZeroInside(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	x := randomSeries(r, 50)
	e := NewEnvelope(x, 3)
	if d := DistToEnvelope(x, e); d != 0 {
		t.Errorf("distance of series to own envelope = %v", d)
	}
}

func TestDistToEnvelopeKnown(t *testing.T) {
	e := Envelope{Lower: ts.New(0, 0), Upper: ts.New(1, 1)}
	x := ts.New(2, -2) // 1 above, 2 below
	if d := SquaredDistToEnvelope(x, e); d != 1+4 {
		t.Errorf("squared dist = %v, want 5", d)
	}
}

func TestGlobalEnvelope(t *testing.T) {
	x := ts.New(1, 9, 4)
	g := GlobalEnvelope(x)
	if !slices.Equal(g.Lower, ts.New(1, 1, 1)) || !slices.Equal(g.Upper, ts.New(9, 9, 9)) {
		t.Errorf("global envelope = %v / %v", g.Lower, g.Upper)
	}
}

// Property (Lemma 2): LB_Keogh lower-bounds the banded DTW distance.
func TestPropLBKeoghLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		k := r.Intn(n)
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		return LBKeogh(x, y, k) <= Banded(x, y, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the global envelope bound is looser than (<=) LB_Keogh.
func TestPropGlobalLooserThanKeogh(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		k := r.Intn(n)
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		g := DistToEnvelope(x, GlobalEnvelope(y))
		return g <= LBKeogh(x, y, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any series formed by warping y within the band stays inside the
// k-envelope of y.
func TestPropEnvelopeContainsWarps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		k := 1 + r.Intn(5)
		y := randomWalk(r, n)
		e := NewEnvelope(y, k)
		// Build z with z_i = y_{i+off}, |off| <= k.
		z := make(ts.Series, n)
		for i := range z {
			off := r.Intn(2*k+1) - k
			j := i + off
			if j < 0 {
				j = 0
			}
			if j >= n {
				j = n - 1
			}
			z[i] = y[j]
		}
		return e.Contains(z, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: envelopes widen with k, so distances to them shrink.
func TestPropEnvelopeDistMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		last := math.MaxFloat64
		for k := 0; k < n; k += 1 + n/8 {
			d := LBKeogh(x, y, k)
			if d > last+1e-9 {
				return false
			}
			last = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeValidRejects(t *testing.T) {
	bad := Envelope{Lower: ts.New(2), Upper: ts.New(1)}
	if bad.Valid() {
		t.Error("crossed envelope reported valid")
	}
	mismatch := Envelope{Lower: ts.New(1, 2), Upper: ts.New(1)}
	if mismatch.Valid() {
		t.Error("length-mismatched envelope reported valid")
	}
}

// Valid reports whether the envelope is well-formed: equal lengths and
// Lower <= Upper pointwise.
func (e Envelope) Valid() bool {
	if len(e.Lower) != len(e.Upper) {
		return false
	}
	for i := range e.Lower {
		if e.Lower[i] > e.Upper[i] {
			return false
		}
	}
	return true
}
