package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMRR(t *testing.T) {
	cases := []struct {
		ranks []int
		want  float64
	}{
		{nil, 0},
		{[]int{1, 1, 1}, 1},
		{[]int{2}, 0.5},
		{[]int{1, 2, 4}, (1 + 0.5 + 0.25) / 3},
		{[]int{0, 0}, 0},
		{[]int{1, 0}, 0.5},
	}
	for _, c := range cases {
		if got := MRR(c.ranks); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MRR(%v) = %v, want %v", c.ranks, got, c.want)
		}
	}
}

func TestTopK(t *testing.T) {
	ranks := []int{1, 3, 5, 11, 0}
	cases := map[int]float64{1: 0.2, 3: 0.4, 5: 0.6, 10: 0.6, 11: 0.8, 100: 0.8}
	for k, want := range cases {
		if got := TopK(ranks, k); math.Abs(got-want) > 1e-12 {
			t.Errorf("TopK(%d) = %v, want %v", k, got, want)
		}
	}
	if TopK(nil, 5) != 0 {
		t.Error("empty TopK")
	}
}

// Property: MRR is in [0,1], decreases when any rank worsens, and TopK is
// monotone in k.
func TestPropMetricBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		ranks := make([]int, len(raw))
		for i, v := range raw {
			ranks[i] = int(v) % 50
		}
		m := MRR(ranks)
		if m < 0 || m > 1 {
			return false
		}
		last := 0.0
		for k := 1; k < 50; k += 7 {
			v := TopK(ranks, k)
			if v < last-1e-12 || v < 0 || v > 1 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
