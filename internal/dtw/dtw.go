// Package dtw implements Dynamic Time Warping distances and the envelope
// machinery used to lower-bound them.
//
// Three distances from the paper are provided:
//
//   - Distance / SquaredDistance: unconstrained DTW (Definition 1),
//     computed by dynamic programming in O(n*m).
//   - Banded / SquaredBanded: k-Local DTW (Definition 4), the Sakoe-Chiba
//     band of half-width k, computed in O(k*n).
//   - UTW / SquaredUTW: Uniform Time Warping (Definition 2), the purely
//     diagonal special case that handles different lengths by stretching.
//
// Definition 5 of the paper combines them: the "DTW distance" between two
// series is the banded LDTW distance between their UTW normal forms; see
// NormalizedDistance.
//
// The package also provides k-envelopes (Definition 6) and the LB_Keogh
// lower bound (Lemma 2), the full-dimensional bound that the index uses as a
// second-stage filter.
//
// Every ...Within function takes a squared cutoff and is inclusive: a
// distance or bound d with d <= cutoff2 comes back exact with ok = true, and
// only d > cutoff2 abandons. A series at exactly the query's threshold is a
// match, and no bound of the cascade dismisses it: Theorem 1's "no false
// dismissals" holds at its boundary too (TestWithinCutoffIsInclusive).
package dtw

import (
	"fmt"
	"math"

	"warping/internal/ts"
)

// SquaredDistance returns the squared unconstrained DTW distance between x
// and y using O(min(n,m)) memory. Both series must be non-empty.
func SquaredDistance(x, y ts.Series) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		panic("dtw: empty series")
	}
	// Keep the inner loop over the shorter series.
	if m > n {
		x, y = y, x
		n, m = m, n
	}
	const inf = math.MaxFloat64
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		curr[0] = inf
		xi := x[i-1]
		for j := 1; j <= m; j++ {
			d := xi - y[j-1]
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = d*d + best
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// Distance returns the unconstrained DTW distance (the square root of
// SquaredDistance).
func Distance(x, y ts.Series) float64 {
	return math.Sqrt(SquaredDistance(x, y))
}

// SquaredBanded returns the squared k-Local DTW distance (Definition 4):
// cell (i, j) may only be matched when |i-j| <= k. The series must have
// equal length (apply UTW normal forms first for unequal lengths; see
// NormalizedDistance). k >= 0; k = 0 degenerates to the squared Euclidean
// distance and k >= n-1 to unconstrained DTW.
func SquaredBanded(x, y ts.Series, k int) float64 {
	n := len(x)
	if n == 0 {
		panic("dtw: empty series")
	}
	if len(y) != n {
		panic(fmt.Sprintf("dtw: SquaredBanded needs equal lengths, got %d and %d", n, len(y)))
	}
	if k < 0 {
		panic("dtw: negative band radius")
	}
	if k == 0 {
		return ts.SquaredDist(x, y)
	}
	if k >= n-1 {
		return SquaredDistance(x, y)
	}
	const inf = math.MaxFloat64
	width := 2*k + 1
	// Row i stores cells j in [i-k, i+k]; slot index j-(i-k).
	prev := make([]float64, width)
	curr := make([]float64, width)
	for i := 1; i <= n; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > n {
			hi = n
		}
		xi := x[i-1]
		for j := lo; j <= hi; j++ {
			d := xi - y[j-1]
			var best float64
			switch {
			case i == 1 && j == 1:
				best = 0
			default:
				best = inf
				// match: prev row, j-1 -> slot (j-1)-(i-1-k) = j-i+k
				if i > 1 && j > 1 && j-1 >= i-1-k && j-1 <= i-1+k {
					if v := prev[j-i+k]; v < best {
						best = v
					}
				}
				// insertion: prev row, same j -> slot j-(i-1-k) = j-i+k+1
				if i > 1 && j >= i-1-k && j <= i-1+k {
					if v := prev[j-i+k+1]; v < best {
						best = v
					}
				}
				// deletion: same row, j-1 -> slot (j-1)-(i-k) = j-i+k-1
				if j > lo {
					if v := curr[j-i+k-1]; v < best {
						best = v
					}
				}
			}
			if best == inf {
				curr[j-i+k] = inf
			} else {
				curr[j-i+k] = d*d + best
			}
		}
		// Clear slots outside [lo, hi] so stale values never leak.
		for s := 0; s < width; s++ {
			j := s + i - k
			if j < lo || j > hi {
				curr[s] = inf
			}
		}
		prev, curr = curr, prev
	}
	return prev[n-(n-k)] // slot of j = n in row n: n-(n-k) = k
}

// Banded returns the k-Local DTW distance (square root of SquaredBanded).
func Banded(x, y ts.Series, k int) float64 {
	return math.Sqrt(SquaredBanded(x, y, k))
}

// BandRadius converts a warping width delta = (2k+1)/n into the band radius
// k for series of length n, mirroring the paper's parameterization. A
// delta <= 0 or NaN yields 0 (Euclidean); delta >= 1 yields n-1 (full DTW).
//
// Contract: the result is always in [0, max(n-1, 0)]. A non-positive n has
// no meaningful band and yields 0 rather than a negative radius, so the
// value is always safe to pass to the banded DTW and envelope functions.
// No delta reaches the float-to-int conversion outside (0, 1), where Go
// leaves its result implementation-dependent.
func BandRadius(n int, delta float64) int {
	if n <= 0 {
		return 0
	}
	if !(delta > 0) {
		return 0
	}
	if delta >= 1 {
		return n - 1
	}
	k := int((delta*float64(n) - 1) / 2)
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// WarpingWidth converts a band radius k back into the warping width
// delta = (2k+1)/n.
//
// Contract: n <= 0 yields 0 (there is no warping width for an empty
// series; the naive formula would divide by zero and return NaN or +Inf),
// and a negative k is treated as 0. For n >= 1 and 0 <= k <= n-1 the value
// lies in (0, 2). While 2k+1 < n the conversion round-trips:
// BandRadius(n, WarpingWidth(n, k)) == k; for wider bands WarpingWidth
// reaches >= 1 and BandRadius clamps to n-1 (full DTW), matching the
// paper's reading of delta as the covered fraction of the warping matrix.
func WarpingWidth(n, k int) float64 {
	if n <= 0 {
		return 0
	}
	if k < 0 {
		k = 0
	}
	return float64(2*k+1) / float64(n)
}

// SquaredUTW returns the squared Uniform Time Warping distance between
// series of possibly different lengths (Definition 2): both time axes are
// stretched to their least common multiple and compared point by point,
// normalized by m*n... The normalization in Definition 2 divides the raw
// squared sum (computed over lcm-length stretches, scaled up to length m*n)
// by m*n, which makes UTW(x, x.Upsample(w)) = 0 and keeps the magnitude
// comparable to a per-unit-length Euclidean distance.
func SquaredUTW(x, y ts.Series) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		panic("dtw: empty series")
	}
	l := ts.LCM(n, m)
	xs := x.Upsample(l / n)
	ys := y.Upsample(l / m)
	// Definition 2 sums over mn points; we summed over l = lcm points.
	// Each lcm point stands for mn/l original points.
	scale := float64(n) * float64(m) / float64(l)
	return ts.SquaredDist(xs, ys) * scale / (float64(m) * float64(n))
}

// UTW returns the Uniform Time Warping distance.
func UTW(x, y ts.Series) float64 {
	return math.Sqrt(SquaredUTW(x, y))
}

// NormalizedDistance implements Definition 5: both series are brought to
// their UTW normal form of length m (stretch + mean subtraction), then the
// banded LDTW distance with warping width delta is returned.
func NormalizedDistance(x, y ts.Series, m int, delta float64) float64 {
	xn := x.NormalForm(m)
	yn := y.NormalForm(m)
	return Banded(xn, yn, BandRadius(m, delta))
}
