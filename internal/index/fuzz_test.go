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
//	LB_KeoghEC <= banded DTW²
//
// for every length generated, multiples of 8, so the scalar tails run too.
// It then runs the production cascade itself at a cutoff equal to the exact
// distance over one-series corpora — the series in a RAM arena's tail (as
// an added series is held), packed as a RAM base, and packed out of core —
// asserting no stage dismisses the true match — the exactness guarantee
// every query result rests on — and that the packed corpora give the series
// back bit for bit. At cutoffs on and just below LB_Keogh, LB_KeoghEC and
// LB_Improved the three must agree on the stage that ends the candidate: a
// byte record's LB_Keogh and LB_KeoghEC are its series' to the bit. Each input is checked twice:
// with the candidate as decoded, whose packed record is mostly float64, and
// with it rounded down to whole semitones, whose record is a byte record.
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
		semitones := make(ts.Series, len(x))
		for i, v := range x {
			semitones[i] = math.Floor(v)
		}
		if !encode(nil, semitones) {
			t.Fatalf("whole semitones %v have no byte record", semitones)
		}
		checkCascade(t, sp, x, q, k)
		checkCascade(t, sp, semitones, q, k)
	})
}

// checkCascade is FuzzCascadeSoundness on one candidate x, query q and band
// radius k; its paged corpus lives in sp.
func checkCascade(t *testing.T, sp *pager.Space, x, q ts.Series, k int) {
	n := len(x)
	exact := dtw.SquaredBanded(x, q, k)
	tol := 1e-9 * (1 + exact)

	env := dtw.NewEnvelope(q, k)
	fine := core.NewPAA(n, 8)
	fe := fine.ApplyEnvelope(env)
	// A one-series corpus: the production cascade reads the series
	// through the same per-slot accessor the queries use.
	st := newCorpus(n)
	if err := st.add(0, x); err != nil {
		t.Fatal(err)
	}
	ram, paged := packedCorpus(t, nil, x), packedCorpus(t, sp, x)
	defer paged.close()
	corpora := []*corpus{&st, ram, paged}
	for _, c := range corpora[1:] {
		if c.coded != encode(nil, x) {
			t.Fatalf("paged=%v: encode says %v, the packed corpus holds byte records: %v", c == paged, encode(nil, x), c.coded)
		}
		r := c.reader()
		got, err := r.series(0)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, x) {
			t.Fatalf("paged=%v coded=%v: the packed corpus read back %v, not %v", c == paged, c.coded, got, x)
		}
		r.release()
	}

	fb := core.SquaredDistToBox(fine.Apply(x), fe)
	fwd, ok2 := dtw.SquaredDistToEnvelopeWithin(x, env, math.MaxFloat64)
	if !ok2 {
		t.Fatal("infinite cutoff abandoned")
	}
	sc := getScratch()
	defer putScratch(sc)
	improved, ec := fwd, fwd
	if k > 0 {
		improved, ok2 = sc.ws.SquaredLBImprovedWithin(q, x, env, k, fwd, math.MaxFloat64)
		if !ok2 {
			t.Fatal("infinite cutoff abandoned")
		}
		if ec, ok2 = sc.ws.SquaredLBKeoghECWithin(q, x, k, math.MaxFloat64); !ok2 {
			t.Fatal("infinite cutoff abandoned")
		}
	}
	// Theorem 1: the box distance is a bound below LB_Keogh.
	if fb > fwd+tol {
		t.Fatalf("box %v > LB_Keogh %v (n=%d k=%d)", fb, fwd, n, k)
	}
	if improved < fwd {
		t.Fatalf("LB_Improved %v < LB_Keogh %v (n=%d k=%d)", improved, fwd, n, k)
	}
	if improved > exact+tol {
		t.Fatalf("LB_Improved %v > exact %v (n=%d k=%d)", improved, exact, n, k)
	}
	if ec > exact+tol {
		t.Fatalf("LB_KeoghEC %v > exact %v (n=%d k=%d)", ec, exact, n, k)
	}

	// The production cascade at cutoff == the exact distance must pass
	// the candidate through every stage.
	p := &Plan{q: q, band: k, env: env}
	outcome := func(c *corpus, w2 float64) lbOutcome {
		rf := newRefiner(c, p, true, Limits{}, sc)
		defer rf.r.release()
		o, _, err := rf.cascade(0, w2)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, c := range corpora {
		if o := outcome(c, exact+tol); o != lbPassed {
			t.Fatalf("packed=%v paged=%v coded=%v: cascade pruned a true match at stage %d (n=%d k=%d)", c != &st, c == paged, c.coded, o, n, k)
		}
	}
	for _, w2 := range []float64{fwd, math.Nextafter(fwd, 0), ec, math.Nextafter(ec, 0), improved, math.Nextafter(improved, 0)} {
		want := outcome(&st, w2)
		for _, c := range corpora[1:] {
			if o := outcome(c, w2); o != want {
				t.Fatalf("paged=%v coded=%v: cutoff %v ends the candidate at stage %d, its series at stage %d (n=%d k=%d)", c == paged, c.coded, w2, o, want, n, k)
			}
		}
	}
}
