package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Fatal("Set/At broken")
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("Row should be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases data")
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 || m.At(0, 0) != 1 || m.At(1, 0) != 4 {
		t.Error("values wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {0, 1, 0}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 1 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestIdentityAndDot(t *testing.T) {
	id := Identity(3)
	v := []float64{2, 3, 4}
	got := id.MulVec(v)
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("identity MulVec changed the vector")
		}
	}
	if Dot(v, v) != 4+9+16 {
		t.Errorf("Dot = %v", Dot(v, v))
	}
}

func randomSymmetric(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenSymDiagonal(t *testing.T) {
	d := FromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}})
	values, vectors := EigenSym(d)
	want := []float64{7, 3, -1}
	for i, v := range want {
		if math.Abs(values[i]-v) > 1e-10 {
			t.Errorf("values[%d] = %v, want %v", i, values[i], v)
		}
	}
	// Each eigenvector row must be a signed unit basis vector.
	for i := 0; i < 3; i++ {
		row := vectors.Row(i)
		var nonzero int
		for _, v := range row {
			if math.Abs(v) > 1e-8 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Errorf("row %d = %v not a basis vector", i, row)
		}
	}
}

func TestEigenSym2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := FromRows([][]float64{{2, 1}, {1, 2}})
	values, vectors := EigenSym(m)
	if math.Abs(values[0]-3) > 1e-10 || math.Abs(values[1]-1) > 1e-10 {
		t.Fatalf("values = %v", values)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	v0 := vectors.Row(0)
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-9 || math.Abs(v0[0]-v0[1]) > 1e-9 {
		t.Errorf("v0 = %v", v0)
	}
}

// Property: A v_i = lambda_i v_i and rows orthonormal, for random symmetric A.
func TestPropEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomSymmetric(r, n)
		values, vectors := EigenSym(a)
		// Orthonormality.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d := Dot(vectors.Row(i), vectors.Row(j))
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					return false
				}
			}
		}
		// A v = lambda v.
		for i := 0; i < n; i++ {
			av := a.MulVec(vectors.Row(i))
			for j := range av {
				if math.Abs(av[j]-values[i]*vectors.At(i, j)) > 1e-7 {
					return false
				}
			}
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if values[i] > values[i-1]+1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: trace is preserved by the eigendecomposition.
func TestPropEigenTrace(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		a := randomSymmetric(r, n)
		var trace float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		values, _ := EigenSym(a)
		var sum float64
		for _, v := range values {
			sum += v
		}
		return math.Abs(trace-sum) < 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPCARecoversStructure(t *testing.T) {
	// Data living almost exactly on a 1-D line in 4-D space: the first
	// principal component should align with the line direction.
	r := rand.New(rand.NewSource(99))
	dir := []float64{0.5, 0.5, 0.5, 0.5} // unit vector
	data := NewMatrix(200, 4)
	for i := 0; i < 200; i++ {
		tval := r.NormFloat64() * 10
		for j := 0; j < 4; j++ {
			data.Set(i, j, tval*dir[j]+r.NormFloat64()*0.01)
		}
	}
	p := NewPCA(data, 2)
	c0 := p.Components.Row(0)
	// |cos angle| with dir should be ~1.
	cos := math.Abs(Dot(c0, dir))
	if cos < 0.999 {
		t.Errorf("first PC misaligned: |cos| = %v", cos)
	}
	if p.Variances[0] < 100*p.Variances[1] {
		t.Errorf("variances not separated: %v", p.Variances)
	}
}

func TestPCAOrthonormalComponents(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := NewMatrix(50, 8)
	for i := range data.Data {
		data.Data[i] = r.NormFloat64()
	}
	p := NewPCA(data, 4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			d := Dot(p.Components.Row(i), p.Components.Row(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-8 {
				t.Fatalf("components not orthonormal: <%d,%d> = %v", i, j, d)
			}
		}
	}
}

// Property: projection onto orthonormal rows never increases the norm of a
// centered vector (Bessel's inequality) — this is what makes the SVD
// transform lower-bounding.
func TestPropPCAProjectionContractive(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	data := NewMatrix(60, 10)
	for i := range data.Data {
		data.Data[i] = r.NormFloat64()
	}
	p := NewPCA(data, 5)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i] = rr.NormFloat64()
			y[i] = rr.NormFloat64()
		}
		px, py := p.Components.MulVec(x), p.Components.MulVec(y)
		var dOrig, dProj float64
		for i := range x {
			d := x[i] - y[i]
			dOrig += d * d
		}
		for i := range px {
			d := px[i] - py[i]
			dProj += d * d
		}
		return dProj <= dOrig+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPCAPanics(t *testing.T) {
	data := NewMatrix(3, 3)
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			NewPCA(data, k)
		}()
	}
}
