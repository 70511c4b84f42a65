package dtw

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"warping/internal/ts"
)

// randShadowBlock fills a block of codes, a (base, step) and an envelope
// around the intervals they stand for: some intervals above the envelope,
// some below, some inside, codes 0 and 255 included.
func randShadowBlock(r *rand.Rand) (q [lbBlockLen]byte, base, step float64, lo, up [lbBlockLen]float64) {
	base, step = r.NormFloat64()*4, r.Float64()/16
	for i := range q {
		q[i] = byte(r.Intn(256))
		if i < 2 {
			q[i] = byte(255 * i) // both ends of the code range
		}
		a := shadowLower(base, step, q[i])
		switch r.Intn(3) {
		case 0:
			lo[i] = a + step + r.Float64() // interval below the envelope
			up[i] = lo[i] + r.Float64()
		case 1:
			up[i] = a - r.Float64() // above
			lo[i] = up[i] - r.Float64()
		default:
			lo[i], up[i] = a-r.Float64(), a+step+r.Float64() // inside: zero
		}
	}
	return
}

// The active shadowBlock16 (assembly on amd64, the Go kernel elsewhere)
// must be bit-identical to the portable reference on finite inputs, step 0
// included: the shadow's prune decisions rest on the two agreeing exactly.
func TestShadowBlock16AsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10000; trial++ {
		q, base, step, lo, up := randShadowBlock(r)
		if trial%10 == 0 {
			step = 0
		}
		got := shadowBlock16(&q, base, step, &lo, &up)
		want := shadowBlock16Go(&q, base, step, &lo, &up)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: shadowBlock16 = %v, shadowBlock16Go = %v", trial, got, want)
		}
	}
}

// TestQuantiseContainsEveryPoint: every point of a quantised series lies in
// its code's interval as the kernels compute it — random walks, constant
// series, series offset far from zero, tiny and huge ranges, ±0 — the
// header holds base = min and a step just over the range / 255, and the
// one-interval fallback holds every point too.
func TestQuantiseContainsEveryPoint(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	var cases []ts.Series
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(300)
		x := make(ts.Series, n)
		v, scale, off := 0.0, math.Pow(10, float64(r.Intn(40)-20)), math.Pow(10, float64(r.Intn(30)))
		for j := range x {
			v += r.NormFloat64()
			x[j] = off + v*scale
		}
		cases = append(cases, x)
	}
	cases = append(cases,
		ts.Series{3, 3, 3, 3},
		ts.Series{math.Copysign(0, -1), 0, 1},
		ts.Series{-1e300, 1e300},
		ts.Series{1e15, 1e15 + 0.125, 1e15 + 0.25},
		ts.Series{math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64},
	)
	for ci, x := range cases {
		sh := make([]byte, ShadowSize(len(x)))
		if err := Quantise(sh, x); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		base := math.Float64frombits(binary.LittleEndian.Uint64(sh))
		step := math.Float64frombits(binary.LittleEndian.Uint64(sh[8:]))
		if base != x.Min() || step < (x.Max()-x.Min())/255 {
			t.Fatalf("case %d: base %v step %v for range [%v, %v]", ci, base, step, x.Min(), x.Max())
		}
		for i, v := range x {
			if a := shadowLower(base, step, sh[shadowHeader+i]); !(a <= v && v <= a+step) {
				t.Fatalf("case %d point %d: %v outside [%v, %v]", ci, i, v, a, a+step)
			}
		}
		// The fallback of a series rounding would leave a point uncovered.
		if lo, hi := x.Min(), x.Max(); hi > lo && !quantiseAt(sh[shadowHeader:], x, lo, spanStep(lo, hi)) {
			t.Fatalf("case %d: the spanning interval does not hold the series", ci)
		}
	}
	for _, bad := range []ts.Series{{0, math.NaN()}, {math.Inf(1), 0}, {-math.MaxFloat64, math.MaxFloat64}} {
		if err := Quantise(make([]byte, ShadowSize(len(bad))), bad); err == nil {
			t.Errorf("Quantise(%v) succeeded", bad)
		}
	}
}

// TestShadowBelowKeogh: on random series and envelopes of every length up to
// 70 (block tails included) the shadow's distance is at most LB_Keogh's as a
// plain float comparison, and the shadow abandons only where LB_Keogh does.
func TestShadowBelowKeogh(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(70)
		x, q := make(ts.Series, n), make(ts.Series, n)
		for i := range x {
			x[i], q[i] = r.NormFloat64(), r.NormFloat64()
		}
		env := NewEnvelope(q, r.Intn(n))
		sh := make([]byte, ShadowSize(n))
		if err := Quantise(sh, x); err != nil {
			t.Fatal(err)
		}
		keogh, _ := SquaredDistToEnvelopeWithin(x, env, math.Inf(1))
		shadow, _ := SquaredShadowDistToEnvelopeWithin(sh, env, math.Inf(1))
		if !(shadow <= keogh) {
			t.Fatalf("trial %d (n=%d): shadow %v > LB_Keogh %v", trial, n, shadow, keogh)
		}
		for _, cut := range []float64{0, keogh / 2, shadow, keogh, keogh * 2} {
			_, kok := SquaredDistToEnvelopeWithin(x, env, cut)
			if _, sok := SquaredShadowDistToEnvelopeWithin(sh, env, cut); !sok && kok {
				t.Fatalf("trial %d (n=%d): shadow abandons at %v, LB_Keogh %v does not", trial, n, cut, keogh)
			}
		}
	}
}

func BenchmarkShadowDist(b *testing.B) {
	r := rand.New(rand.NewSource(38))
	x, q := make(ts.Series, 128), make(ts.Series, 128)
	for i := range x {
		x[i], q[i] = r.NormFloat64(), r.NormFloat64()
	}
	env := NewEnvelope(q, 6)
	sh := make([]byte, ShadowSize(len(x)))
	if err := Quantise(sh, x); err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.Run("keogh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _ := SquaredDistToEnvelopeWithin(x, env, math.Inf(1))
			sink += d
		}
	})
	b.Run("shadow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _ := SquaredShadowDistToEnvelopeWithin(sh, env, math.Inf(1))
			sink += d
		}
	})
	b.Run("shadow-go", func(b *testing.B) {
		base := math.Float64frombits(binary.LittleEndian.Uint64(sh))
		step := math.Float64frombits(binary.LittleEndian.Uint64(sh[8:]))
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(x); j += lbBlockLen {
				sink += shadowBlock16Go((*[lbBlockLen]byte)(sh[shadowHeader+j:]), base, step,
					(*[lbBlockLen]float64)(env.Lower[j:]), (*[lbBlockLen]float64)(env.Upper[j:]))
			}
		}
	})
	_ = sink
}
