package dtw

import (
	"math"
	"math/rand"
	"testing"

	"warping/internal/ts"
)

// randBlock fills a block with a candidate that wanders in and out of a
// random envelope: roughly a third of elements above, a third below, a
// third inside, so every branch of the kernel is exercised.
func randBlock(r *rand.Rand) (x, lo, up [lbBlockLen]float64) {
	for i := range x {
		a, b := r.NormFloat64(), r.NormFloat64()
		if a > b {
			a, b = b, a
		}
		lo[i], up[i] = a, b
		switch r.Intn(3) {
		case 0:
			x[i] = b + r.Float64() // above the envelope
		case 1:
			x[i] = a - r.Float64() // below
		default:
			x[i] = a + (b-a)*r.Float64() // inside: contributes zero
		}
	}
	return
}

// The active lbBlock16 (assembly on amd64, the Go kernel elsewhere) must
// be bit-identical to the portable reference on finite inputs: the
// cascade's abandon decisions, and through them every query result, hinge
// on the two agreeing exactly.
func TestLBBlock16AsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10000; trial++ {
		x, lo, up := randBlock(r)
		got := lbBlock16(&x, &lo, &up)
		want := lbBlock16Go(&x, &lo, &up)
		if got != want {
			t.Fatalf("trial %d: lbBlock16 = %v, lbBlock16Go = %v", trial, got, want)
		}
	}
}

// Degenerate blocks: all-zero, exactly-on-envelope, and huge deviations.
func TestLBBlock16Edges(t *testing.T) {
	var x, lo, up [lbBlockLen]float64
	if got := lbBlock16(&x, &lo, &up); got != 0 {
		t.Fatalf("zero block: got %v", got)
	}
	for i := range x {
		x[i] = float64(i)
		lo[i] = float64(i) // x exactly on both bounds
		up[i] = float64(i)
	}
	if got := lbBlock16(&x, &lo, &up); got != 0 {
		t.Fatalf("on-envelope block: got %v", got)
	}
	for i := range x {
		x[i] = 1e150
		lo[i], up[i] = -1, 1
	}
	got, want := lbBlock16(&x, &lo, &up), lbBlock16Go(&x, &lo, &up)
	if got != want {
		t.Fatalf("huge block: asm %v, go %v", got, want)
	}
}

// randBytesBlock fills a byte block and a base whose widened values
// float64(b_j) + base wander in and out of a random envelope. Bases run from
// integers (a melody's normal form is whole semitones off a fractional
// offset) to magnitudes where adding base rounds.
func randBytesBlock(r *rand.Rand) (b [lbBlockLen]byte, base float64, lo, up [lbBlockLen]float64) {
	switch r.Intn(3) {
	case 0:
		base = float64(r.Intn(200) - 100)
	case 1:
		base = -128 * r.Float64()
	default:
		base = r.NormFloat64() * 1e17
	}
	r.Read(b[:])
	for j := range lo {
		x := float64(b[j]) + base
		a, c := x+(r.Float64()-0.5)*64, x+(r.Float64()-0.5)*64
		if a > c {
			a, c = c, a
		}
		lo[j], up[j] = a, c
	}
	return
}

// The active lbBytes16 (assembly on amd64, the Go kernel elsewhere) must be
// bit-identical to its portable reference, and both to lbBlock16 over the
// widened values float64(b_j) + base: the cascade runs LB_Keogh on a byte
// record in place of its decoded series, and every prune must be the one
// the series would have got.
func TestLBBytes16AsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 10000; trial++ {
		b, base, lo, up := randBytesBlock(r)
		var x [lbBlockLen]float64
		for j := range x {
			x[j] = float64(b[j]) + base
		}
		got := lbBytes16(&b, base, &lo, &up)
		goKernel := lbBytes16Go(&b, base, &lo, &up)
		widened := lbBlock16(&x, &lo, &up)
		if math.Float64bits(got) != math.Float64bits(goKernel) || math.Float64bits(got) != math.Float64bits(widened) {
			t.Fatalf("trial %d: lbBytes16 = %v, lbBytes16Go = %v, lbBlock16 over the widened block = %v", trial, got, goKernel, widened)
		}
	}
}

// SquaredBytesToEnvelopeWithin equals SquaredDistToEnvelopeWithin over the
// widened series bit for bit, ok flag included, at every cutoff: below zero,
// at each block boundary's running sum (block-granular abandons on either
// side of it), inside the n mod 16 tail, and at +Inf — for lengths with no
// tail and with one.
func TestSquaredBytesToEnvelopeWithin(t *testing.T) {
	r := rand.New(rand.NewSource(4801))
	for _, n := range []int{16, 100, 128, 256} {
		for trial := 0; trial < 200; trial++ {
			b := make([]byte, n)
			lo, up := make(ts.Series, n), make(ts.Series, n)
			var base float64
			for i := 0; i < n; i += lbBlockLen {
				var bb [lbBlockLen]byte
				var l, u [lbBlockLen]float64
				bb, base, l, u = randBytesBlock(rand.New(rand.NewSource(r.Int63())))
				copy(b[i:], bb[:])
				copy(lo[i:], l[:])
				copy(up[i:], u[:])
			}
			base = float64(r.Intn(64)) - 32.375
			x := make(ts.Series, n)
			for i, v := range b {
				x[i] = float64(v) + base
			}
			e := Envelope{Lower: lo, Upper: up}
			full, _ := SquaredDistToEnvelopeWithin(x, e, math.Inf(1))
			cutoffs := []float64{-1, 0, full, math.Nextafter(full, 0), math.Inf(1), r.Float64() * full}
			var sum float64
			for i := 0; i+lbBlockLen <= n; i += lbBlockLen {
				sum += lbBlock16((*[lbBlockLen]float64)(x[i:]), (*[lbBlockLen]float64)(lo[i:]), (*[lbBlockLen]float64)(up[i:]))
				cutoffs = append(cutoffs, sum, math.Nextafter(sum, 0))
			}
			if n%lbBlockLen != 0 {
				cutoffs = append(cutoffs, (sum+full)/2)
			}
			for _, c := range cutoffs {
				got, gotOK := SquaredBytesToEnvelopeWithin(b, base, e, c)
				want, wantOK := SquaredDistToEnvelopeWithin(x, e, c)
				if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
					t.Fatalf("n=%d cutoff %v: bytes (%v, %v), widened series (%v, %v)", n, c, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func BenchmarkLBBlock16(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, lo, up := randBlock(r)
	var sink float64
	b.Run("active", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += lbBlock16(&x, &lo, &up)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += lbBlock16Go(&x, &lo, &up)
		}
	})
	_ = sink
}

func BenchmarkLBBytes16(b *testing.B) {
	bb, base, lo, up := randBytesBlock(rand.New(rand.NewSource(7)))
	var sink float64
	b.Run("active", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += lbBytes16(&bb, base, &lo, &up)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += lbBytes16Go(&bb, base, &lo, &up)
		}
	})
	_ = sink
}
