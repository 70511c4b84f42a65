package index

import (
	"math"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/pager"
	"warping/internal/ts"
)

// cascadeSeries decodes a byte string into a query/candidate pair whose
// length is a positive multiple of 8 (so the 8-dim New_PAA divides it) plus
// a band radius, mirroring the dtw package's fuzz decoding.
func cascadeSeries(data []byte) (x, q ts.Series, k int, ok bool) {
	if len(data) < 17 {
		return nil, nil, 0, false
	}
	kByte := data[0]
	payload := data[1:]
	n := (len(payload) / 2) &^ 7
	if n < 8 || n > 96 {
		return nil, nil, 0, false
	}
	x = make(ts.Series, n)
	q = make(ts.Series, n)
	for i := 0; i < n; i++ {
		x[i] = float64(payload[i])/16 - 8
		q[i] = float64(payload[n+i])/16 - 8
	}
	k = int(kByte) % n
	return x, q, k, true
}

// FuzzCascadeSoundness pins the whole chain on arbitrary series:
//
//	New_PAA box <= LB_Keogh <= LB_Improved <= banded DTW²
//	8-bit shadow <= LB_Keogh
//
// the shadow's link as a plain float comparison with no tolerance (a shadow
// prune must be an LB_Keogh prune), for every length generated, multiples
// of 8, so the scalar tails run too. It then runs the production cascade
// itself at a cutoff equal to the exact distance over a one-series corpus in
// RAM and one out of core, asserting no stage dismisses the true match —
// the exactness guarantee every query result rests on.
func FuzzCascadeSoundness(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(append([]byte{0}, make([]byte, 64)...))
	long := make([]byte, 129)
	for i := range long {
		long[i] = byte(i * 2)
	}
	f.Add(long)
	sp, err := pager.Open(pager.Config{Dir: f.TempDir(), PoolPages: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = sp.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		x, q, k, ok := cascadeSeries(data)
		if !ok {
			t.Skip()
		}
		n := len(x)
		exact := dtw.SquaredBanded(x, q, k)
		tol := 1e-9 * (1 + exact)

		env := dtw.NewEnvelope(q, k)
		fine := core.NewPAA(n, 8)
		fe := fine.ApplyEnvelope(env)
		// A one-series corpus: the production cascade reads the series
		// through the same per-slot accessor the queries use.
		st := newCorpus(n)
		if _, err := st.add(0, x); err != nil {
			t.Fatal(err)
		}
		r := st.reader()
		paged := spilledCorpus(t, sp, x)
		defer paged.close()
		pr := paged.reader()
		defer pr.release()

		fb := core.SquaredDistToBox(fine.Apply(x), fe)
		fwd, ok2 := dtw.SquaredDistToEnvelopeWithin(x, env, math.MaxFloat64)
		if !ok2 {
			t.Fatal("infinite cutoff abandoned")
		}
		v := getVerifier()
		defer putVerifier(v)
		improved := fwd
		if k > 0 {
			improved, ok2 = v.ws.SquaredLBImprovedWithin(q, x, env, k, fwd, math.MaxFloat64)
			if !ok2 {
				t.Fatal("infinite cutoff abandoned")
			}
		}
		// Theorem 1: the box distance is a bound below LB_Keogh.
		if fb > fwd+tol {
			t.Fatalf("box %v > LB_Keogh %v (n=%d k=%d)", fb, fwd, n, k)
		}
		sh, _, err := pr.shadow(0)
		if err != nil {
			t.Fatal(err)
		}
		if shadow, _ := dtw.SquaredShadowDistToEnvelopeWithin(sh, env, math.MaxFloat64); !(shadow <= fwd) {
			t.Fatalf("shadow %v > LB_Keogh %v (n=%d k=%d)", shadow, fwd, n, k)
		}
		if improved < fwd {
			t.Fatalf("LB_Improved %v < LB_Keogh %v (n=%d k=%d)", improved, fwd, n, k)
		}
		if improved > exact+tol {
			t.Fatalf("LB_Improved %v > exact %v (n=%d k=%d)", improved, exact, n, k)
		}

		// The production cascade at cutoff == the exact distance must pass
		// the candidate through every stage.
		c := lbQuery{q: q, env: env, band: k, useLB: true}
		for _, rd := range []*corpusReader{&r, &pr} {
			if o, _, err := v.cascade(&c, rd, 0, exact+tol); o != lbPassed || err != nil {
				t.Fatalf("paged=%v: cascade pruned a true match at stage %d (n=%d k=%d), err %v", rd == &pr, o, n, k, err)
			}
		}
	})
}
