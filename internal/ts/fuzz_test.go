package ts

import (
	"testing"
)

// bruteExtreme is the O(n*k) reference for the sliding-window extremes.
func bruteExtreme(s Series, k int, min bool) Series {
	out := make(Series, len(s))
	for i := range s {
		lo, hi := i-k, i+k
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		best := s[lo]
		for j := lo + 1; j <= hi; j++ {
			if (min && s[j] < best) || (!min && s[j] > best) {
				best = s[j]
			}
		}
		out[i] = best
	}
	return out
}

// FuzzSlidingMinMax pins the van Herk/Gil-Werman sliding extremes against
// the brute-force window scan, whole and streamed in chunks of every width
// through one reused Extremes (the early-abandoning path of the LB_Improved
// second pass).
func FuzzSlidingMinMax(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, 1)
	f.Add([]byte{255}, 0)
	f.Add([]byte{5, 5, 5, 5, 5, 5}, 3)
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4}, 2)
	f.Add([]byte{1, 2}, 200)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if len(data) == 0 || len(data) > 256 || k < 0 || k > 512 {
			t.Skip()
		}
		s := make(Series, len(data))
		for i, b := range data {
			s[i] = float64(b)/8 - 16
		}
		wantMin := bruteExtreme(s, k, true)
		wantMax := bruteExtreme(s, k, false)
		if lo, up := SlidingExtremes(s, k); !lo.Equal(wantMin) || !up.Equal(wantMax) {
			t.Fatalf("SlidingExtremes(k=%d) = %v / %v, want %v / %v", k, lo, up, wantMin, wantMax)
		}
		var e Extremes
		e.Reset(s[:len(s)/2], k/2) // leave scanned state behind
		e.Fill(make(Series, len(s)/2), make(Series, len(s)/2), 0)
		for width := 1; width <= len(s); width++ {
			e.Reset(s, k)
			lo, up := make(Series, len(s)), make(Series, len(s))
			for i := 0; i < len(s); i += width {
				end := min(i+width, len(s))
				e.Fill(lo[i:end], up[i:end], i)
			}
			if !lo.Equal(wantMin) || !up.Equal(wantMax) {
				t.Fatalf("streamed in %d-wide chunks (k=%d): %v / %v, want %v / %v", width, k, lo, up, wantMin, wantMax)
			}
		}
	})
}
