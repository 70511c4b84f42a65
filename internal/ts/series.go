// Package ts provides the time-series kernel used throughout the library:
// the Series type, summary statistics, normal forms (shift invariance and
// uniform-time-warping invariance), and resampling primitives.
//
// The conventions follow Zhu & Shasha (SIGMOD 2003): a melody or a hummed
// query is a real-valued series of pitches sampled at a fixed frame rate.
// Before any similarity comparison the series is transformed to a normal
// form that is invariant under pitch shifting (mean subtraction) and time
// scaling (upsampling to a fixed normal-form length).
package ts

import (
	"errors"
	"fmt"
	"math"
)

// Series is a real-valued time series. The zero value is an empty series.
// A Series is a plain slice; functions in this package never mutate their
// inputs.
type Series []float64

// ErrEmpty is returned by operations that require a non-empty series.
var ErrEmpty = errors.New("ts: empty series")

// ErrLength is returned when two series must have equal length but do not,
// or when a requested length is invalid.
var ErrLength = errors.New("ts: invalid length")

// New returns a Series copied from the given values.
func New(values ...float64) Series {
	s := make(Series, len(values))
	copy(s, values)
	return s
}

// Constant returns a series of n copies of v.
func Constant(n int, v float64) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	c := make(Series, len(s))
	copy(c, s)
	return c
}

// Mean returns the arithmetic mean. It returns 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Min returns the smallest value. It panics on an empty series.
func (s Series) Min() float64 {
	if len(s) == 0 {
		panic(ErrEmpty)
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value. It panics on an empty series.
func (s Series) Max() float64 {
	if len(s) == 0 {
		panic(ErrEmpty)
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Std returns the population standard deviation (0 for series of length < 2).
func (s Series) Std() float64 {
	if len(s) < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)))
}

// Shift returns a new series with delta added to every sample.
func (s Series) Shift(delta float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = v + delta
	}
	return out
}

// ZeroMean returns the shift-invariant normal form of s: the series minus its
// mean. This realizes the paper's shift invariance ("users do not hum at the
// right absolute pitch").
func (s Series) ZeroMean() Series {
	return s.Shift(-s.Mean())
}

// ZNormalize returns (s - mean)/std. If the standard deviation is zero the
// zero-mean series is returned unchanged (an all-constant hum carries no
// melodic information to rescale).
func (s Series) ZNormalize() Series {
	out := s.ZeroMean()
	std := s.Std()
	if std == 0 {
		return out
	}
	for i := range out {
		out[i] /= std
	}
	return out
}

// String renders a short, human-readable description.
func (s Series) String() string {
	if len(s) == 0 {
		return "Series(len=0)"
	}
	return fmt.Sprintf("Series(len=%d, mean=%.3f, min=%.3f, max=%.3f)",
		len(s), s.Mean(), s.Min(), s.Max())
}

// Dist returns the Euclidean (L2) distance between two equal-length series.
// It panics if the lengths differ; use dtw.UTW for unequal lengths.
func Dist(x, y Series) float64 {
	return math.Sqrt(SquaredDist(x, y))
}

// SquaredDist returns the squared Euclidean distance between two equal-length
// series. It panics if the lengths differ.
func SquaredDist(x, y Series) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("ts: SquaredDist length mismatch %d vs %d", len(x), len(y)))
	}
	var sum float64
	for i, v := range x {
		d := v - y[i]
		sum += d * d
	}
	return sum
}

// Upsample returns the w-upsampling U_w(s) of the series: every sample is
// repeated w consecutive times (Definition 3 in the paper). It panics if
// w < 1.
func (s Series) Upsample(w int) Series {
	if w < 1 {
		panic(fmt.Sprintf("ts: Upsample factor %d < 1", w))
	}
	out := make(Series, 0, len(s)*w)
	for _, v := range s {
		for j := 0; j < w; j++ {
			out = append(out, v)
		}
	}
	return out
}

// Stretch resamples s to exactly m samples by index mapping
// z_i = s[ceil(i*n/m)] (1-based), the stretching used in the Uniform Time
// Warping definition. When m is a multiple of len(s) this equals upsampling;
// it also supports shrinking. It panics if m < 1 or s is empty.
func (s Series) Stretch(m int) Series {
	n := len(s)
	if n == 0 {
		panic(ErrEmpty)
	}
	if m < 1 {
		panic(fmt.Sprintf("ts: Stretch to %d < 1", m))
	}
	out := make(Series, m)
	for i := 1; i <= m; i++ {
		j := (i*n + m - 1) / m // ceil(i*n/m)
		if j < 1 {
			j = 1
		}
		if j > n {
			j = n
		}
		out[i-1] = s[j-1]
	}
	return out
}

// NormalForm returns the UTW + shift normal form used by the query system:
// the series is stretched to length m and mean-subtracted. The result is
// invariant under absolute pitch shifts and uniform tempo changes of the
// input (Section 3.3 of the paper).
func (s Series) NormalForm(m int) Series {
	return s.Stretch(m).ZeroMean()
}

// GCD returns the greatest common divisor of a and b (non-negative).
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b. LCM(0, x) is 0.
func LCM(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	l := a / GCD(a, b) * b
	if l < 0 {
		l = -l
	}
	return l
}
