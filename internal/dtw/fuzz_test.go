package dtw

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"warping/internal/ts"
)

// fuzzSeries decodes a byte string into two equal-length series, a band
// radius and a cutoff, rejecting degenerate inputs. Each byte becomes one
// sample in [-8, 8) so values stay well-conditioned.
func fuzzSeries(data []byte) (x, y ts.Series, k int, cutoff2 float64, ok bool) {
	if len(data) < 6 {
		return nil, nil, 0, 0, false
	}
	kByte := data[0]
	cutByte := data[1]
	payload := data[2:]
	n := len(payload) / 2
	if n < 1 || n > 96 {
		return nil, nil, 0, 0, false
	}
	x = make(ts.Series, n)
	y = make(ts.Series, n)
	for i := 0; i < n; i++ {
		x[i] = float64(payload[i])/16 - 8
		y[i] = float64(payload[n+i])/16 - 8
	}
	k = int(kByte) % (n + 2) // includes k = n-1 and beyond
	cutoff2 = float64(cutByte) * float64(cutByte) / 4
	return x, y, k, cutoff2, true
}

func addSeed(f *testing.F, k, cut byte, xs, ys []byte) {
	f.Helper()
	data := append([]byte{k, cut}, append(append([]byte{}, xs...), ys...)...)
	f.Add(data)
}

func fuzzSeeds(f *testing.F) {
	addSeed(f, 0, 10, []byte{1, 2, 3, 4}, []byte{4, 3, 2, 1})
	addSeed(f, 2, 0, []byte{128, 128, 128, 128, 128}, []byte{0, 64, 128, 192, 255})
	addSeed(f, 5, 100, []byte{10, 20, 30, 40, 50, 60, 70, 80}, []byte{80, 70, 60, 50, 40, 30, 20, 10})
	addSeed(f, 255, 255, []byte{1, 1}, []byte{255, 255})
	var long [64]byte
	for i := range long {
		long[i] = byte(i * 4)
	}
	addSeed(f, 7, 50, long[:], long[:])
}

// FuzzSquaredBandedWithin pins the early-abandoning DP against the plain
// SquaredBanded reference for any cutoff: a true return must carry the
// exact distance (within float tolerance) with exact <= cutoff2, and an
// abandoned return must only happen when the exact distance genuinely
// exceeds the cutoff (no false dismissals).
func FuzzSquaredBandedWithin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, k, cutoff2, ok := fuzzSeries(data)
		if !ok {
			t.Skip()
		}
		exact := SquaredBanded(x, y, k)
		got, within := SquaredBandedWithin(x, y, k, cutoff2)
		tol := 1e-9 * (1 + exact)
		if within {
			if math.Abs(got-exact) > tol {
				t.Fatalf("within but got %v, exact %v (n=%d k=%d)", got, exact, len(x), k)
			}
			if exact > cutoff2+tol {
				t.Fatalf("within but exact %v > cutoff2 %v", exact, cutoff2)
			}
		} else {
			if exact <= cutoff2-tol {
				t.Fatalf("false dismissal: exact %v <= cutoff2 %v", exact, cutoff2)
			}
			if got <= cutoff2 {
				t.Fatalf("abandoned but returned %v <= cutoff2 %v", got, cutoff2)
			}
		}
		// The workspace form must agree bit-for-bit with the allocating
		// form, even when reused across inputs.
		var w Workspace
		w.SquaredBandedWithin(y, x, k, cutoff2) // dirty the buffers
		got2, within2 := w.SquaredBandedWithin(x, y, k, cutoff2)
		if within2 != within || got2 != got {
			t.Fatalf("workspace (%v,%v) != allocating (%v,%v)", got2, within2, got, within)
		}
	})
}

// FuzzVerificationCascade checks the whole bound cascade on arbitrary
// series: every lower bound added by the PR (forward LB_Keogh with early
// abandoning, reversed-role LB_Keogh) stays below the exact banded DTW
// distance, so no stage can ever dismiss a true match.
func FuzzVerificationCascade(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		x, q, k, _, ok := fuzzSeries(data)
		if !ok {
			t.Skip()
		}
		if k > len(x)-1 {
			k = len(x) - 1
		}
		exact := SquaredBanded(x, q, k)
		tol := 1e-9 * (1 + exact)

		env := NewEnvelope(q, k)
		forward, ok2 := SquaredDistToEnvelopeWithin(x, env, math.MaxFloat64)
		if !ok2 {
			t.Fatal("infinite cutoff abandoned")
		}
		if forward > exact+tol {
			t.Fatalf("forward LB %v > exact %v (n=%d k=%d)", forward, exact, len(x), k)
		}
		// Reversed roles: the query against the candidate's envelope.
		candEnv := NewEnvelope(x, k)
		reversed, _ := SquaredDistToEnvelopeWithin(q, candEnv, math.MaxFloat64)
		if reversed > exact+tol {
			t.Fatalf("reversed LB %v > exact %v (n=%d k=%d)", reversed, exact, len(x), k)
		}
		// The cascade's LB_KeoghEC streams that envelope: the same bound.
		var w Workspace
		if ec, _ := w.SquaredLBKeoghECWithin(q, x, k, math.MaxFloat64); math.Float64bits(ec) != math.Float64bits(reversed) {
			t.Fatalf("LB_KeoghEC %v, reversed LB %v (n=%d k=%d)", ec, reversed, len(x), k)
		}
		// Cutoff at the exact distance: no stage may dismiss the match.
		if _, ok := SquaredDistToEnvelopeWithin(x, env, exact+tol); !ok {
			t.Fatal("forward LB dismissed a true match")
		}
		if _, ok := SquaredDistToEnvelopeWithin(q, candEnv, exact+tol); !ok {
			t.Fatal("reversed LB dismissed a true match")
		}
		if _, ok := w.SquaredBandedWithin(x, q, k, exact+tol); !ok {
			t.Fatal("exact stage dismissed a true match")
		}
	})
}

// FuzzLBImprovedChain pins the two-pass bound on arbitrary series:
// LB_Keogh <= LB_Improved <= banded DTW, and LB_Improved may never dismiss
// a true match — the exactness guarantee the cascade rests on.
func FuzzLBImprovedChain(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		x, q, k, _, ok := fuzzSeries(data)
		if !ok {
			t.Skip()
		}
		if k > len(x)-1 {
			k = len(x) - 1
		}
		exact := SquaredBanded(x, q, k)
		tol := 1e-9 * (1 + exact)

		env := NewEnvelope(q, k)
		forward, ok2 := SquaredDistToEnvelopeWithin(x, env, math.MaxFloat64)
		if !ok2 {
			t.Fatal("infinite cutoff abandoned")
		}
		var w Workspace
		improved, ok3 := w.SquaredLBImprovedWithin(q, x, env, k, forward, math.MaxFloat64)
		if !ok3 {
			t.Fatal("infinite cutoff abandoned")
		}
		if improved < forward {
			t.Fatalf("LB_Improved %v < LB_Keogh %v (n=%d k=%d)", improved, forward, len(x), k)
		}
		if improved > exact+tol {
			t.Fatalf("LB_Improved %v > exact %v (n=%d k=%d)", improved, exact, len(x), k)
		}
		// Cutoff at the exact distance: the bound may not dismiss the match,
		// even with dirty workspace buffers from the earlier call.
		if _, ok := w.SquaredLBImprovedWithin(q, x, env, k, forward, exact+tol); !ok {
			t.Fatal("LB_Improved dismissed a true match")
		}
	})
}

// naiveEnvelope is the O(nk) reference k-envelope: a scan of every window.
func naiveEnvelope(x ts.Series, k int) Envelope {
	e := Envelope{Lower: make(ts.Series, len(x)), Upper: make(ts.Series, len(x))}
	for i := range x {
		lo, up := x[max(i-k, 0)], x[max(i-k, 0)]
		for j := max(i-k, 0) + 1; j <= i+k && j < len(x); j++ {
			if x[j] < lo {
				lo = x[j]
			}
			if x[j] > up {
				up = x[j]
			}
		}
		e.Lower[i], e.Upper[i] = lo, up
	}
	return e
}

// refLBImproved is the unstreamed second pass: project x onto env, build
// the projection's whole envelope by window scans, and take the early-
// abandoning distance from q to it.
func refLBImproved(q, x ts.Series, env Envelope, k int, fwd, cutoff2 float64) (float64, bool) {
	proj := make(ts.Series, len(x))
	for i, v := range x {
		if v > env.Upper[i] {
			v = env.Upper[i]
		} else if v < env.Lower[i] {
			v = env.Lower[i]
		}
		proj[i] = v
	}
	d, ok := SquaredDistToEnvelopeWithin(q, naiveEnvelope(proj, k), cutoff2-fwd)
	return fwd + d, ok
}

// FuzzLBImprovedMatchesReference pins the streamed LB_Improved second pass
// to refLBImproved bit for bit: the same verdict and the same Float64bits
// at every budget — infinite, at the full bound, half of it, negative and
// the fuzzed one — for n up to 300 (block tails included), k from 0 to
// n+2, samples that include ±0, and one workspace dirtied by another shape
// first. An abandoned bound may not be below its cutoff.
func FuzzLBImprovedMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 4, 3, 2, 1}, 1, 0.0, 1.0)
	f.Add([]byte{0x80, 0, 0x80, 0, 0, 0x80, 0, 0x80}, 2, 0.0, 0.0)
	f.Add(bytes.Repeat([]byte{7, 200, 13, 90, 0x80, 31, 255, 0}, 32), 5, 2.5, 40.0)
	f.Add(bytes.Repeat([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5}, 66), 12, 0.0, 1e3)
	f.Add(bytes.Repeat([]byte{3, 250, 0x80}, 86), 127, 1.0, 5.0)
	f.Add([]byte{5, 6}, 3, 0.5, -1.0)
	f.Add([]byte("01"+strings.Repeat("0", 166)), 82, 0.02857142857142857, 73.0) // fwd+sum rounds to cutoff2
	f.Fuzz(func(t *testing.T, data []byte, k int, fwd, budget float64) {
		n := len(data) / 2
		if n < 1 || n > 300 || k < 0 || k > n+2 ||
			math.IsNaN(fwd) || math.IsInf(fwd, 0) || fwd < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
			t.Skip()
		}
		sample := func(b byte) float64 {
			if b == 0x80 {
				return math.Copysign(0, -1)
			}
			return float64(int8(b)) / 8
		}
		q, x := make(ts.Series, n), make(ts.Series, n)
		for i := range q {
			q[i], x[i] = sample(data[i]), sample(data[n+i])
		}
		env := naiveEnvelope(q, k)
		var w Workspace
		if n > 1 {
			w.SquaredLBImprovedWithin(x[:n/2], q[:n/2], naiveEnvelope(x[:n/2], k/2), k/2, 0, math.Inf(1))
		}
		full, _ := refLBImproved(q, x, env, k, fwd, math.Inf(1))
		for _, cutoff2 := range []float64{math.Inf(1), full, fwd + (full-fwd)/2, fwd - 1, fwd + budget} {
			got, ok := w.SquaredLBImprovedWithin(q, x, env, k, fwd, cutoff2)
			want, wantOK := refLBImproved(q, x, env, k, fwd, cutoff2)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d k=%d fwd=%v cutoff2=%v: streamed (%v, %v), reference (%v, %v)", n, k, fwd, cutoff2, got, ok, want, wantOK)
			}
			// fwd + (a partial sum above cutoff2-fwd) may round to cutoff2.
			if !ok && got < cutoff2 {
				t.Fatalf("n=%d k=%d: abandoned at %v, below cutoff2 %v", n, k, got, cutoff2)
			}
		}
	})
}

// FuzzWarpingWidthBandRadius checks the conversion guards: any (n, k,
// delta) must produce finite, in-range values, and the round trip must
// obey the documented clamp.
func FuzzWarpingWidthBandRadius(f *testing.F) {
	f.Add(int64(0), int64(0), float64(0))
	f.Add(int64(0), int64(5), float64(1))
	f.Add(int64(1), int64(0), float64(0.5))
	f.Add(int64(128), int64(6), float64(0.1))
	f.Add(int64(-4), int64(-4), float64(-1))
	f.Add(int64(128), int64(5), math.NaN())
	f.Fuzz(func(t *testing.T, n, k int64, delta float64) {
		if n > 1<<20 || n < -1<<20 || k > 1<<20 || k < -1<<20 {
			t.Skip()
		}
		r := BandRadius(int(n), delta)
		if r < 0 {
			t.Fatalf("BandRadius(%d, %v) = %d < 0", n, delta, r)
		}
		if n > 0 && r > int(n)-1 {
			t.Fatalf("BandRadius(%d, %v) = %d > n-1", n, delta, r)
		}
		w := WarpingWidth(int(n), int(k))
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("WarpingWidth(%d, %d) = %v", n, k, w)
		}
	})
}
