package core

import (
	"fmt"
	"math"

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
// averaging, so NewPAA is simply the LinearTransform over the PAA matrix,
// applied as frame sums. n must be divisible by N.
func NewPAA(n, N int) *LinearTransform {
	return newPAA("New_PAA", n, N)
}

// newPAA is the LinearTransform over paaMatrix(n, N) that knows its frames.
func newPAA(name string, n, N int) *LinearTransform {
	t := NewLinearTransform(name, paaMatrix(n, N))
	t.frame, t.w = n/N, t.a.At(0, 0)
	return t
}

// CoarsePAADim and NewCoarsePAA are what is left of the 4-dim coarse
// New_PAA pre-stage the index's cascade once ran ahead of LB_Keogh: nothing
// in the program calls them, the frozen bench/ compiles against both
// (bench/sut.go replays the coarse ApplyEnvelope). ROADMAP item 2a deletes
// them with the benchmark's use.
const CoarsePAADim = 4

// NewCoarsePAA returns the CoarsePAADim-dimensional New_PAA transform for
// series of length n (see CoarsePAADim). n must be divisible by CoarsePAADim.
func NewCoarsePAA(n int) *LinearTransform {
	return newPAA("New_PAA_coarse", n, CoarsePAADim)
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
