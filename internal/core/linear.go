package core

import (
	"fmt"

	"warping/internal/dtw"
	"warping/internal/linalg"
	"warping/internal/ts"
)

// LinearTransform is a dimensionality reduction transform defined by an
// N x n matrix A: features X = A x. Its envelope extension uses the
// sign-split construction of Lemma 3, which is container-invariant for any
// real matrix.
//
// The transform is lower-bounding whenever the rows of A are mutually
// orthogonal with Euclidean norm at most 1; all constructors in this
// package produce such matrices. Validate checks this property.
type LinearTransform struct {
	name string
	a    *linalg.Matrix // N x n
	// positive is true when every coefficient of a is >= 0; the envelope
	// transform then reduces to transforming lower and upper separately
	// (the New_PAA fast path).
	positive bool
	// frame, when positive, says a is paaMatrix's: row i holds w over
	// columns [i·frame, (i+1)·frame) and zeros elsewhere. A x is then the
	// frame sums of w·x_j, in O(n) rather than O(N·n) (mulVec).
	frame int
	w     float64
}

// NewLinearTransform wraps an N x n matrix as a Transform. The caller is
// responsible for the rows being orthogonal with norm <= 1 if the transform
// is to be lower-bounding; Validate can verify this.
func NewLinearTransform(name string, a *linalg.Matrix) *LinearTransform {
	positive := true
	for _, v := range a.Data {
		if v < 0 {
			positive = false
			break
		}
	}
	return &LinearTransform{name: name, a: a, positive: positive}
}

// Name implements Transform.
func (t *LinearTransform) Name() string { return t.name }

// InputLen implements Transform.
func (t *LinearTransform) InputLen() int { return t.a.Cols }

// OutputLen implements Transform.
func (t *LinearTransform) OutputLen() int { return t.a.Rows }

// Apply implements Transform: X = A x.
func (t *LinearTransform) Apply(x ts.Series) []float64 {
	if len(x) != t.a.Cols {
		panic(fmt.Sprintf("core: %s expects length %d, got %d", t.name, t.a.Cols, len(x)))
	}
	return t.mulVec(x)
}

// mulVec returns A x. For a PAA matrix it adds only each row's frame: the
// same products in the same order as the dense product, which adds
// 0·x_j = ±0 to a sum that is +0 before the frame and leaves it unchanged
// after, so the result is Float64bits-equal for finite x.
func (t *LinearTransform) mulVec(x []float64) []float64 {
	if t.frame == 0 {
		return t.a.MulVec(x)
	}
	out := make([]float64, t.a.Rows)
	for i := range out {
		var sum float64
		for _, v := range x[i*t.frame : (i+1)*t.frame] {
			sum += t.w * v
		}
		out[i] = sum
	}
	return out
}

// ApplyEnvelope implements Transform using the Lemma 3 sign-split:
//
//	U^_j = sum_i a_ij * (u_i if a_ij >= 0 else l_i)
//	L^_j = sum_i a_ij * (l_i if a_ij >= 0 else u_i)
//
// For an all-positive matrix this reduces to (A l, A u).
func (t *LinearTransform) ApplyEnvelope(e dtw.Envelope) FeatureEnvelope {
	n := t.a.Cols
	if e.Len() != n {
		panic(fmt.Sprintf("core: %s expects envelope length %d, got %d", t.name, n, e.Len()))
	}
	if t.positive {
		return FeatureEnvelope{
			Lower: t.mulVec(e.Lower),
			Upper: t.mulVec(e.Upper),
		}
	}
	nOut := t.a.Rows
	lo := make([]float64, nOut)
	hi := make([]float64, nOut)
	for j := 0; j < nOut; j++ {
		row := t.a.Row(j)
		var l, u float64
		for i, aij := range row {
			if aij >= 0 {
				u += aij * e.Upper[i]
				l += aij * e.Lower[i]
			} else {
				u += aij * e.Lower[i]
				l += aij * e.Upper[i]
			}
		}
		lo[j] = l
		hi[j] = u
	}
	return FeatureEnvelope{Lower: lo, Upper: hi}
}
