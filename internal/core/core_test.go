package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"warping/internal/dtw"
	"warping/internal/linalg"
	"warping/internal/ts"
)

// Validate checks that the rows of the transform matrix are mutually
// orthogonal with norm at most 1 (within tol), the sufficient condition for
// the transform to be lower-bounding. It returns a descriptive error when
// the condition fails.
func (t *LinearTransform) Validate(tol float64) error {
	dot := func(a, b []float64) (sum float64) {
		for i, v := range a {
			sum += v * b[i]
		}
		return sum
	}
	for i := 0; i < t.a.Rows; i++ {
		ri := t.a.Row(i)
		norm := dot(ri, ri)
		if norm > 1+tol {
			return fmt.Errorf("core: %s row %d has norm^2 %.6f > 1", t.name, i, norm)
		}
		for j := i + 1; j < t.a.Rows; j++ {
			d := dot(ri, t.a.Row(j))
			if d > tol || d < -tol {
				return fmt.Errorf("core: %s rows %d,%d not orthogonal (dot %.2e)", t.name, i, j, d)
			}
		}
	}
	return nil
}

// Contains reports whether the feature point p lies in the box within tol.
func (f FeatureEnvelope) Contains(p []float64, tol float64) bool {
	if len(p) != len(f.Lower) {
		return false
	}
	for i, v := range p {
		if v < f.Lower[i]-tol || v > f.Upper[i]+tol {
			return false
		}
	}
	return true
}

func randomSeries(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	for i := range s {
		s[i] = r.NormFloat64() * 3
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

// allTransforms builds one of each transform family for length n, dim N.
// SVD is trained on a fixed random-walk sample.
func allTransforms(r *rand.Rand, n, N int) []Transform {
	training := make([]ts.Series, 40)
	for i := range training {
		training[i] = randomWalk(r, n).ZeroMean()
	}
	return []Transform{
		NewPAA(n, N),
		NewKeoghPAA(n, N),
		NewDFT(n, N),
		NewHaar(n, N),
		NewSVD(training, N),
		NewIdentity(n),
	}
}

func TestValidateAllTransforms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tr := range allTransforms(r, 64, 8) {
		lt, ok := tr.(*LinearTransform)
		if !ok {
			continue // Keogh_PAA has no matrix
		}
		if err := lt.Validate(1e-9); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

func TestTransformShapes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, tr := range allTransforms(r, 64, 8) {
		if tr.InputLen() != 64 {
			t.Errorf("%s InputLen = %d", tr.Name(), tr.InputLen())
		}
		wantOut := 8
		if tr.Name() == "LB" {
			wantOut = 64
		}
		if tr.OutputLen() != wantOut {
			t.Errorf("%s OutputLen = %d, want %d", tr.Name(), tr.OutputLen(), wantOut)
		}
		x := randomSeries(r, 64)
		if got := len(tr.Apply(x)); got != wantOut {
			t.Errorf("%s Apply len = %d", tr.Name(), got)
		}
		fe := tr.ApplyEnvelope(dtw.NewEnvelope(x, 3))
		if len(fe.Lower) != wantOut || !fe.Valid() {
			t.Errorf("%s envelope len=%d valid=%v", tr.Name(), len(fe.Lower), fe.Valid())
		}
	}
}

// Property: every transform is lower-bounding on plain Euclidean distance.
func TestPropLowerBounding(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n, N = 64, 8
	transforms := allTransforms(r, n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomWalk(rr, n)
		y := randomWalk(rr, n)
		orig := ts.Dist(x, y)
		for _, tr := range transforms {
			fx, fy := tr.Apply(x), tr.Apply(y)
			var d float64
			for i := range fx {
				dd := fx[i] - fy[i]
				d += dd * dd
			}
			if math.Sqrt(d) > orig+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property (Definition 8 / Lemma 3): container invariance. Any series z
// inside the envelope maps into the feature box.
func TestPropContainerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, N = 64, 8
	transforms := allTransforms(r, n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		y := randomWalk(rr, n)
		k := 1 + rr.Intn(8)
		e := dtw.NewEnvelope(y, k)
		// Random series inside the envelope.
		z := make(ts.Series, n)
		for i := range z {
			z[i] = e.Lower[i] + rr.Float64()*(e.Upper[i]-e.Lower[i])
		}
		for _, tr := range transforms {
			fe := tr.ApplyEnvelope(e)
			if !fe.Contains(tr.Apply(z), 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 1): the feature-space envelope distance lower-bounds
// banded DTW, for every transform.
func TestPropTheorem1(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, N = 64, 8
	transforms := allTransforms(r, n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomWalk(rr, n)
		q := randomWalk(rr, n)
		k := rr.Intn(10)
		trueDTW := dtw.Banded(x, q, k)
		for _, tr := range transforms {
			if LowerBoundDTW(tr, x, q, k) > trueDTW+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: New_PAA is always at least as tight as Keogh_PAA (the paper's
// central claim, provable since avg-of-envelope is inside min/max box).
func TestPropNewPAADominatesKeogh(t *testing.T) {
	const n, N = 64, 8
	newPAA := NewPAA(n, N)
	keogh := NewKeoghPAA(n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomWalk(rr, n)
		q := randomWalk(rr, n)
		k := rr.Intn(12)
		lbNew := LowerBoundDTW(newPAA, x, q, k)
		lbKeogh := LowerBoundDTW(keogh, x, q, k)
		return lbNew >= lbKeogh-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the New_PAA feature box is contained in the Keogh_PAA box
// (Figure 5: "our bounds are tighter ... always the case").
func TestPropNewPAABoxInsideKeoghBox(t *testing.T) {
	const n, N = 64, 8
	newPAA := NewPAA(n, N)
	keogh := NewKeoghPAA(n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomWalk(rr, n)
		k := rr.Intn(12)
		e := dtw.NewEnvelope(q, k)
		a := newPAA.ApplyEnvelope(e)
		b := keogh.ApplyEnvelope(e)
		for i := range a.Lower {
			if a.Lower[i] < b.Lower[i]-1e-9 || a.Upper[i] > b.Upper[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the full-dimensional identity transform reproduces LB_Keogh
// exactly.
func TestPropIdentityIsLBKeogh(t *testing.T) {
	const n = 48
	id := NewIdentity(n)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomWalk(rr, n)
		q := randomWalk(rr, n)
		k := rr.Intn(10)
		return math.Abs(LowerBoundDTW(id, x, q, k)-dtw.LBKeogh(x, q, k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: at k=0 (pure Euclidean) the envelope degenerates to a point and
// for every sign-split linear transform the bound equals the feature-space
// distance between the two feature vectors. Keogh_PAA is excluded: its
// min/max frame reduction does not collapse at k=0, which is exactly why it
// is looser than New_PAA even at zero warping width (Figure 7).
func TestPropZeroBandIsFeatureDistance(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const n, N = 64, 8
	transforms := allTransforms(r, n, N)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomWalk(rr, n)
		q := randomWalk(rr, n)
		for _, tr := range transforms {
			if tr.Name() == "Keogh_PAA" {
				continue
			}
			lb := LowerBoundDTW(tr, x, q, 0)
			fx, fq := tr.Apply(x), tr.Apply(q)
			var d float64
			for i := range fx {
				dd := fx[i] - fq[i]
				d += dd * dd
			}
			if math.Abs(lb-math.Sqrt(d)) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDFTApplyMatchesDefinition(t *testing.T) {
	// The first DFT feature (DC) must be sum(x)/sqrt(n).
	r := rand.New(rand.NewSource(8))
	n := 32
	x := randomSeries(r, n)
	d := NewDFT(n, 5)
	fx := d.Apply(x)
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Abs(fx[0]-sum/math.Sqrt(float64(n))) > 1e-9 {
		t.Errorf("DC feature = %v", fx[0])
	}
}

func TestDFTNyquistRow(t *testing.T) {
	// n=8, N=8 includes the Nyquist row; all rows must stay orthonormal.
	d := NewDFT(8, 8)
	if err := d.Validate(1e-9); err != nil {
		t.Error(err)
	}
}

func TestHaarKnownCoefficients(t *testing.T) {
	// For x = [1,1,1,1,-1,-1,-1,-1] (n=8): scaling coeff 0, first wavelet
	// coeff (1/sqrt(8)) * (4 - (-4)) = 8/sqrt(8) = sqrt(8).
	x := ts.New(1, 1, 1, 1, -1, -1, -1, -1)
	h := NewHaar(8, 2)
	fx := h.Apply(x)
	if math.Abs(fx[0]) > 1e-12 {
		t.Errorf("scaling coeff = %v, want 0", fx[0])
	}
	if math.Abs(fx[1]-math.Sqrt(8)) > 1e-12 {
		t.Errorf("wavelet coeff = %v, want sqrt(8)", fx[1])
	}
}

func TestHaarFullReconstructionEnergy(t *testing.T) {
	// With N = n the Haar transform is orthonormal: energy is preserved.
	r := rand.New(rand.NewSource(9))
	n := 16
	x := randomSeries(r, n)
	h := NewHaar(n, n)
	fx := h.Apply(x)
	var ex, ef float64
	for i := range x {
		ex += x[i] * x[i]
		ef += fx[i] * fx[i]
	}
	if math.Abs(ex-ef) > 1e-9 {
		t.Errorf("energy %v != %v", ex, ef)
	}
}

func TestSVDOptimalAtZeroWidth(t *testing.T) {
	// SVD minimizes reconstruction error on the training distribution, so
	// on training-like data at k=0 its bound should be the tightest of
	// the reduced transforms (Figure 7 at warping width 0).
	r := rand.New(rand.NewSource(10))
	const n, N = 64, 8
	training := make([]ts.Series, 100)
	for i := range training {
		training[i] = randomWalk(r, n).ZeroMean()
	}
	svd := NewSVD(training, N)
	paa := NewPAA(n, N)
	dft := NewDFT(n, N)
	var tSVD, tPAA, tDFT float64
	const trials = 100
	for i := 0; i < trials; i++ {
		x := randomWalk(r, n).ZeroMean()
		y := randomWalk(r, n).ZeroMean()
		tSVD += Tightness(svd, x, y, 0)
		tPAA += Tightness(paa, x, y, 0)
		tDFT += Tightness(dft, x, y, 0)
	}
	if tSVD < tPAA || tSVD < tDFT {
		t.Errorf("SVD not tightest at k=0: svd=%.3f paa=%.3f dft=%.3f",
			tSVD/trials, tPAA/trials, tDFT/trials)
	}
}

func TestTightnessRange(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n, N = 64, 8
	tr := NewPAA(n, N)
	for i := 0; i < 50; i++ {
		x := randomWalk(r, n)
		y := randomWalk(r, n)
		k := r.Intn(8)
		tt := Tightness(tr, x, y, k)
		if tt < 0 || tt > 1+1e-9 {
			t.Fatalf("tightness %v out of range", tt)
		}
	}
	// Identical series: distance 0, tightness defined as 1.
	x := randomWalk(r, n)
	if Tightness(tr, x, x, 3) != 1 {
		t.Error("tightness of identical series should be 1")
	}
}

func TestSquaredDistToBox(t *testing.T) {
	fe := FeatureEnvelope{Lower: []float64{0, 0}, Upper: []float64{1, 1}}
	if d := SquaredDistToBox([]float64{0.5, 0.5}, fe); d != 0 {
		t.Errorf("inside point: %v", d)
	}
	if d := SquaredDistToBox([]float64{2, -1}, fe); d != 1+1 {
		t.Errorf("outside point: %v", d)
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { NewPAA(10, 3) },                    // N does not divide n
		func() { NewPAA(10, 0) },                    // N out of range
		func() { NewHaar(12, 4) },                   // not power of two
		func() { NewDFT(8, 9) },                     // N > n
		func() { NewSVD(nil, 2) },                   // empty training
		func() { NewPAA(8, 4).Apply(ts.New(1, 2)) }, // wrong input length
		func() {
			SquaredDistToBox([]float64{1}, FeatureEnvelope{Lower: []float64{0, 0}, Upper: []float64{1, 1}})
		},
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

// Property: random orthogonal-row linear transforms (not just the built-in
// families) satisfy container invariance via the sign-split — Lemma 3 holds
// for arbitrary matrices.
func TestPropLemma3Generic(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 4 + rr.Intn(20)
		N := 1 + rr.Intn(n)
		a := linalg.NewMatrix(N, n)
		for i := range a.Data {
			a.Data[i] = rr.NormFloat64()
		}
		tr := NewLinearTransform("random", a)
		y := randomWalk(rr, n)
		k := rr.Intn(5)
		e := dtw.NewEnvelope(y, k)
		fe := tr.ApplyEnvelope(e)
		if !fe.Valid() {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			z := make(ts.Series, n)
			for i := range z {
				z[i] = e.Lower[i] + rr.Float64()*(e.Upper[i]-e.Lower[i])
			}
			if !fe.Contains(tr.Apply(z), 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNewPAAFrameSumsMatchTheMatrix: New_PAA's frame sums are the dense
// product paaMatrix(n, N)·x, Float64bits-equal (±0 aside), for every
// dimension N from 1 to 128 over series of N·m points, m = 1–4 — for Apply,
// and for both sides of ApplyEnvelope — on random walks, on series with
// zeros of both signs, and on frames that cancel to zero.
func TestNewPAAFrameSumsMatchTheMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0) }
	for N := 1; N <= 128; N++ {
		for m := 1; m <= 4; m++ {
			n := N * m
			tr, a := NewPAA(n, N), paaMatrix(n, N)
			for trial := 0; trial < 3; trial++ {
				x := randomWalk(r, n)
				switch trial {
				case 1:
					for i := range x {
						if r.Intn(2) == 0 {
							x[i] = math.Copysign(0, float64(r.Intn(2)-1))
						}
					}
				case 2:
					for i := 1; i < n; i += 2 {
						x[i] = -x[i-1]
					}
				}
				if got, want := tr.Apply(x), a.MulVec(x); !slices.EqualFunc(got, want, same) {
					t.Fatalf("n=%d N=%d trial %d: Apply %v, the matrix product %v", n, N, trial, got, want)
				}
				e := dtw.NewEnvelope(x, r.Intn(n))
				fe := tr.ApplyEnvelope(e)
				if !slices.EqualFunc(fe.Lower, a.MulVec(e.Lower), same) || !slices.EqualFunc(fe.Upper, a.MulVec(e.Upper), same) {
					t.Fatalf("n=%d N=%d trial %d: ApplyEnvelope differs from the matrix product", n, N, trial)
				}
			}
		}
	}
}

func BenchmarkNewPAAApply(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomWalk(r, 256)
	tr := NewPAA(256, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply(x)
	}
}

func BenchmarkNewPAAEnvelope(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	q := randomWalk(r, 256)
	e := dtw.NewEnvelope(q, 12)
	tr := NewPAA(256, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyEnvelope(e)
	}
}

// Valid reports whether Lower <= Upper pointwise with equal lengths.
func (f FeatureEnvelope) Valid() bool {
	if len(f.Lower) != len(f.Upper) {
		return false
	}
	for i := range f.Lower {
		if f.Lower[i] > f.Upper[i] {
			return false
		}
	}
	return true
}
