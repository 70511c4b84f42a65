package dtw

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"warping/internal/ts"
)

// The active envBytesPass (assembly on amd64, the Go kernel elsewhere) must
// write exactly what its portable reference writes, for every step the
// envelope takes — below the block width, where a block reads bytes the
// pass has not yet written, and above it — and leave the bytes past m
// alone.
func TestEnvBytesPassAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for trial := 0; trial < 2000; trial++ {
		m := lbBlockLen * (1 + r.Intn(12))
		s := 1 + r.Intn(40)
		up, lo := make([]byte, m+s), make([]byte, m+s)
		r.Read(up)
		r.Read(lo)
		wantUp, wantLo := bytes.Clone(up), bytes.Clone(lo)
		envBytesPass(up, lo, s, m)
		envBytesPassGo(wantUp, wantLo, s, m)
		if !bytes.Equal(up, wantUp) || !bytes.Equal(lo, wantLo) {
			t.Fatalf("trial %d (m=%d s=%d): envBytesPass wrote %v / %v, envBytesPassGo %v / %v", trial, m, s, up, lo, wantUp, wantLo)
		}
	}
}

// checkBytesEnvelope fails unless the workspace's byte envelope of b,
// widened by base, is ts.SlidingExtremes of the widened series bit for bit.
func checkBytesEnvelope(t *testing.T, w *Workspace, b []byte, base float64, k int) {
	t.Helper()
	x := make(ts.Series, len(b))
	for i, v := range b {
		x[i] = float64(v) + base
	}
	wantLo, wantUp := ts.SlidingExtremes(x, k)
	lo, up := w.bytesEnvelope(b, k)
	if len(lo) != len(b) || len(up) != len(b) {
		t.Fatalf("n=%d k=%d: envelope of %d / %d bytes", len(b), k, len(lo), len(up))
	}
	for i := range b {
		l, u := float64(lo[i])+base, float64(up[i])+base
		if math.Float64bits(l) != math.Float64bits(wantLo[i]) || math.Float64bits(u) != math.Float64bits(wantUp[i]) {
			t.Fatalf("n=%d k=%d base=%v at %d: widened byte envelope [%v, %v], SlidingExtremes [%v, %v]", len(b), k, base, i, l, u, wantLo[i], wantUp[i])
		}
	}
}

// FuzzBytesEnvelope pins the byte envelope LB_KeoghEC reads from a byte
// record to ts.SlidingExtremes over the widened values, bit for bit: at
// k = 0, at k >= n-1 (the window clipped to the whole series) and between,
// for short series, a series one block long, lengths with a tail and
// without, and bases that round. One workspace serves every call, so stale
// bytes of a longer envelope must not leak into a shorter one.
func FuzzBytesEnvelope(f *testing.F) {
	r := rand.New(rand.NewSource(4902))
	for _, n := range []int{1, 7, 16, 100, 128, 256} {
		b := make([]byte, n)
		r.Read(b)
		for _, k := range []int{0, 1, n / 8, n - 1, n, n + 5} {
			f.Add(b, k, -61.25)
		}
	}
	f.Add([]byte{255, 0, 255, 0, 1}, 1, 1e17)
	var w Workspace
	f.Fuzz(func(t *testing.T, b []byte, k int, base float64) {
		if len(b) == 0 || len(b) > 512 || math.IsNaN(base) || math.IsInf(base, 0) || math.Abs(base) > 1e300 {
			t.Skip()
		}
		if k < 0 {
			k = -(k + 1)
		}
		checkBytesEnvelope(t, &w, b, base, k%(2*len(b)+2))
	})
}

// SquaredLBKeoghECBytesWithin and SquaredLBKeoghECWithin over the widened
// series equal SquaredDistToEnvelopeWithin from the query to the
// candidate's NewEnvelope bit for bit, ok flag included, at every cutoff:
// below zero, at each block boundary's running sum and just below it,
// inside the n mod 16 tail, and at +Inf — for the served bands and k >=
// n-1, at lengths with no tail and with one.
func TestSquaredLBKeoghECBytesWithin(t *testing.T) {
	r := rand.New(rand.NewSource(4903))
	var w Workspace
	for _, n := range []int{7, 16, 100, 128, 256} {
		for _, k := range []int{0, 1, 6, 13, 26, n - 1, n + 3} {
			for trial := 0; trial < 20; trial++ {
				b := make([]byte, n)
				walk := r.Intn(256)
				for i := range b {
					walk = min(max(walk+r.Intn(9)-4, 0), 255)
					b[i] = byte(walk)
				}
				base := float64(r.Intn(64)) - 32.375
				x, q := make(ts.Series, n), make(ts.Series, n)
				for i, v := range b {
					x[i] = float64(v) + base
					q[i] = x[i] + r.NormFloat64()*8
				}
				env := NewEnvelope(x, k)
				full, _ := SquaredDistToEnvelopeWithin(q, env, math.Inf(1))
				cutoffs := []float64{-1, 0, full, math.Nextafter(full, 0), math.Inf(1), r.Float64() * full}
				var sum float64
				for i := 0; i+lbBlockLen <= n; i += lbBlockLen {
					sum += lbBlock16((*[lbBlockLen]float64)(q[i:]), (*[lbBlockLen]float64)(env.Lower[i:]), (*[lbBlockLen]float64)(env.Upper[i:]))
					cutoffs = append(cutoffs, sum, math.Nextafter(sum, 0))
				}
				if n%lbBlockLen != 0 {
					cutoffs = append(cutoffs, (sum+full)/2)
				}
				for _, c := range cutoffs {
					want, wantOK := SquaredDistToEnvelopeWithin(q, env, c)
					got, gotOK := w.SquaredLBKeoghECWithin(q, x, k, c)
					gotB, gotBOK := w.SquaredLBKeoghECBytesWithin(q, b, base, k, c)
					if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK ||
						math.Float64bits(gotB) != math.Float64bits(want) || gotBOK != wantOK {
						t.Fatalf("n=%d k=%d cutoff %v: series (%v, %v), bytes (%v, %v), reference (%v, %v)", n, k, c, got, gotOK, gotB, gotBOK, want, wantOK)
					}
				}
			}
		}
	}
}

// BenchmarkLBKeoghEC times the stage on a served phrase shape (n = 128,
// the bands of δ = 0.1 and 0.2) without abandoning: from a byte record,
// whose envelope is built on the bytes, and from the decoded series, whose
// envelope is streamed.
func BenchmarkLBKeoghEC(b *testing.B) {
	r := rand.New(rand.NewSource(4904))
	const n = 128
	rec := make([]byte, n)
	walk := 128
	for i := range rec {
		walk = min(max(walk+r.Intn(9)-4, 0), 255)
		rec[i] = byte(walk)
	}
	base := -70.5
	x, q := make(ts.Series, n), make(ts.Series, n)
	for i, v := range rec {
		x[i] = float64(v) + base
		q[i] = x[i] + r.NormFloat64()*4
	}
	var w Workspace
	var sink float64
	for _, k := range []int{13, 26} {
		b.Run("bytes/k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, _ := w.SquaredLBKeoghECBytesWithin(q, rec, base, k, math.Inf(1))
				sink += d
			}
		})
		b.Run("series/k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, _ := w.SquaredLBKeoghECWithin(q, x, k, math.Inf(1))
				sink += d
			}
		})
	}
	_ = sink
}
