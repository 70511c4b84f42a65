package ts

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveExtreme is the O(n*k) reference for the sliding-window extremes:
// each window's maximum when max is set, its minimum otherwise.
func naiveExtreme(s Series, k int, max bool) Series {
	out := make(Series, len(s))
	for i := range s {
		lo, hi := i-k, i+k
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s) {
			hi = len(s) - 1
		}
		best := s[lo]
		for j := lo + 1; j <= hi; j++ {
			if (max && s[j] > best) || (!max && s[j] < best) {
				best = s[j]
			}
		}
		out[i] = best
	}
	return out
}

func TestSlidingMinMaxSmall(t *testing.T) {
	s := New(3, 1, 4, 1, 5, 9, 2, 6)
	mn, mx := SlidingExtremes(s, 1)
	wantMin := New(1, 1, 1, 1, 1, 2, 2, 2)
	wantMax := New(3, 4, 4, 5, 9, 9, 9, 6)
	if !mn.Equal(wantMin) {
		t.Errorf("min = %v, want %v", mn, wantMin)
	}
	if !mx.Equal(wantMax) {
		t.Errorf("max = %v, want %v", mx, wantMax)
	}
}

func TestSlidingZeroRadius(t *testing.T) {
	s := New(5, 2, 8)
	if mn, mx := SlidingExtremes(s, 0); !mn.Equal(s) || !mx.Equal(s) {
		t.Error("radius 0 should return the series itself")
	}
}

func TestSlidingWindowLargerThanSeries(t *testing.T) {
	s := New(4, 7, 1)
	mn, mx := SlidingExtremes(s, 10)
	for i := range s {
		if mn[i] != 1 || mx[i] != 7 {
			t.Fatalf("i=%d: min=%v max=%v", i, mn[i], mx[i])
		}
	}
}

func TestSlidingEmpty(t *testing.T) {
	if mn, mx := SlidingExtremes(Series{}, 3); len(mn) != 0 || len(mx) != 0 {
		t.Errorf("SlidingExtremes on empty = %v, %v", mn, mx)
	}
}

func TestSlidingNegativeRadiusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SlidingExtremes(New(1, 2), -1)
}

func TestPropSlidingMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		k := r.Intn(20)
		s := randomSeries(r, n)
		mn, mx := SlidingExtremes(s, k)
		return mn.Equal(naiveExtreme(s, k, false)) && mx.Equal(naiveExtreme(s, k, true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: min <= s <= max pointwise, and windows only widen with k.
func TestPropEnvelopeOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		k := r.Intn(10)
		s := randomSeries(r, n)
		mn, mx := SlidingExtremes(s, k)
		mn2, mx2 := SlidingExtremes(s, k+1)
		for i := range s {
			if mn[i] > s[i] || mx[i] < s[i] {
				return false
			}
			if mn2[i] > mn[i] || mx2[i] < mx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMovingAverage(t *testing.T) {
	s := New(1, 2, 3, 4, 5)
	got := MovingAverage(s, 1)
	want := New(1.5, 2, 3, 4, 4.5)
	if !got.ApproxEqual(want, 1e-12) {
		t.Errorf("MovingAverage = %v, want %v", got, want)
	}
	if got := MovingAverage(s, 0); !got.Equal(s) {
		t.Errorf("radius 0 = %v", got)
	}
	if got := MovingAverage(Series{}, 2); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestPropMovingAverageBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		k := r.Intn(10)
		s := randomSeries(r, n)
		avg := MovingAverage(s, k)
		mn, mx := SlidingExtremes(s, k)
		for i := range s {
			if avg[i] < mn[i]-1e-9 || avg[i] > mx[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSlidingExtremes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := randomSeries(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SlidingExtremes(s, 16)
	}
}
