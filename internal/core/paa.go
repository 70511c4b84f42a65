package core

import (
	"fmt"
	"math"
	"slices"

	"warping/internal/dtw"
	"warping/internal/linalg"
	"warping/internal/ts"
)

// paaMatrix builds the scaled PAA matrix: N frames of size m = n/N, each
// row holding 1/sqrt(m) over its frame. Rows are orthogonal with unit norm,
// so Euclidean distance on features lower-bounds the original distance
// tightly (this is the standard sqrt(n/N)-scaled LB_PAA).
func paaMatrix(n, N int) *linalg.Matrix {
	if N < 1 || N > n {
		panic(fmt.Sprintf("core: PAA N=%d out of range [1,%d]", N, n))
	}
	if n%N != 0 {
		panic(fmt.Sprintf("core: PAA needs N (%d) dividing n (%d)", N, n))
	}
	m := n / N
	w := 1 / math.Sqrt(float64(m))
	a := linalg.NewMatrix(N, n)
	for i := 0; i < N; i++ {
		row := a.Row(i)
		for j := i * m; j < (i+1)*m; j++ {
			row[j] = w
		}
	}
	return a
}

// NewPAA returns the paper's improved PAA transform ("New_PAA"): the
// Piecewise Aggregate Approximation whose envelope reduction takes frame
// *averages* of the upper and lower envelopes. Because all PAA coefficients
// are positive, the generic Lemma 3 sign-split degenerates to exactly this
// averaging, so NewPAA is simply the LinearTransform over the PAA matrix.
// n must be divisible by N.
func NewPAA(n, N int) *LinearTransform {
	return NewLinearTransform("New_PAA", paaMatrix(n, N))
}

// CoarsePAADim is the dimensionality of the coarse New_PAA pre-stage used
// by the multi-resolution verification cascade: the paper's own transform
// at a second, coarser resolution. Four dimensions keep the pre-stage box
// distance at a quarter of the full-dimensional cost while still pruning a
// useful fraction of candidates.
const CoarsePAADim = 4

// NewCoarsePAA returns the CoarsePAADim-dimensional New_PAA transform for
// series of length n — the coarse half of the two-resolution cascade. It
// is an independent instance of Theorem 1 (its box distance lower-bounds
// banded DTW on its own), so it composes soundly with any fine transform,
// PAA or not. n must be divisible by CoarsePAADim.
func NewCoarsePAA(n int) *LinearTransform {
	return NewLinearTransform("New_PAA_coarse", paaMatrix(n, CoarsePAADim))
}

// CoarseNested reports whether the coarse pre-stage is redundant behind t's
// own box test: t is New_PAA at a dimensionality that is a multiple of
// CoarsePAADim, so every coarse frame is a union of m whole fine frames, a
// coarse coordinate's excess over its box is (sum of the m fine excesses)/√m,
// and by Cauchy–Schwarz the coarse box distance never exceeds the fine one.
// A candidate that passed the fine box test at some threshold therefore
// passes the coarse one at the same threshold.
func CoarseNested(t Transform) bool {
	lt, ok := t.(*LinearTransform)
	if !ok || lt.a.Rows%CoarsePAADim != 0 || lt.a.Cols%lt.a.Rows != 0 {
		return false
	}
	return slices.Equal(lt.a.Data, paaMatrix(lt.a.Cols, lt.a.Rows).Data)
}

// KeoghPAA is the prior state-of-the-art PAA envelope reduction (Keogh,
// VLDB 2002): features are the same scaled PAA, but the envelope is reduced
// by taking the frame *minimum* of the lower envelope and the frame
// *maximum* of the upper envelope. The resulting feature box always
// contains the NewPAA box, so its lower bound is never tighter (Figure 5 of
// the paper); it is included as the baseline for every experiment.
type KeoghPAA struct {
	n, frames int
}

// NewKeoghPAA returns the Keogh_PAA transform for series of length n
// reduced to N frames. n must be divisible by N.
func NewKeoghPAA(n, N int) *KeoghPAA {
	// Reuse paaMatrix for its argument validation.
	_ = paaMatrix(n, N)
	return &KeoghPAA{n: n, frames: N}
}

// Name implements Transform.
func (t *KeoghPAA) Name() string { return "Keogh_PAA" }

// InputLen implements Transform.
func (t *KeoghPAA) InputLen() int { return t.n }

// OutputLen implements Transform.
func (t *KeoghPAA) OutputLen() int { return t.frames }

// Apply implements Transform: identical features to NewPAA (scaled frame
// averages), so that the two methods differ only in envelope reduction.
func (t *KeoghPAA) Apply(x ts.Series) []float64 {
	if len(x) != t.n {
		panic(fmt.Sprintf("core: Keogh_PAA expects length %d, got %d", t.n, len(x)))
	}
	m := t.n / t.frames
	w := 1 / math.Sqrt(float64(m))
	out := make([]float64, t.frames)
	for i := 0; i < t.frames; i++ {
		var sum float64
		for j := i * m; j < (i+1)*m; j++ {
			sum += x[j]
		}
		out[i] = sum * w
	}
	return out
}

// ApplyEnvelope implements Transform with Keogh's min/max reduction. In the
// scaled feature space a frame's upper bound is sqrt(m) * max(upper) since
// sum(x over frame) <= m * max(upper) and features carry a 1/sqrt(m) factor.
func (t *KeoghPAA) ApplyEnvelope(e dtw.Envelope) FeatureEnvelope {
	if e.Len() != t.n {
		panic(fmt.Sprintf("core: Keogh_PAA expects envelope length %d, got %d", t.n, e.Len()))
	}
	m := t.n / t.frames
	s := math.Sqrt(float64(m))
	lo := make([]float64, t.frames)
	hi := make([]float64, t.frames)
	for i := 0; i < t.frames; i++ {
		mn := e.Lower[i*m]
		mx := e.Upper[i*m]
		for j := i*m + 1; j < (i+1)*m; j++ {
			if e.Lower[j] < mn {
				mn = e.Lower[j]
			}
			if e.Upper[j] > mx {
				mx = e.Upper[j]
			}
		}
		lo[i] = mn * s
		hi[i] = mx * s
	}
	return FeatureEnvelope{Lower: lo, Upper: hi}
}
