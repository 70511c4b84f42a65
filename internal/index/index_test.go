package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warping/internal/core"
	"warping/internal/ts"
)

const (
	testN   = 128
	testDim = 8
)

func randomWalk(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s.ZeroMean()
}

// tune is the normal form of a random melody, as qbh indexes a phrase: 1 to
// 40 notes moving by at most 5 semitones within MIDI pitch 0-127, each held
// 1 to 16 ticks, rendered as a pitch series, stretched to n points and
// shifted to zero mean. A paged corpus of tunes holds byte records.
func tune(r *rand.Rand, n int) ts.Series {
	var pitch ts.Series
	p := 40 + r.Intn(48)
	for range 1 + r.Intn(40) {
		p = min(max(p+r.Intn(11)-5, 0), 127)
		for range 1 + r.Intn(16) {
			pitch = append(pitch, float64(p))
		}
	}
	return pitch.NormalForm(n)
}

// buildIndex indexes count random walks under ids 0..count-1 the way a
// served corpus grows: the first three quarters bulk-loaded into the base
// tree, the rest added one by one into the delta beside it.
func buildIndex(r *rand.Rand, t core.Transform, count int) (*Index, []Entry) {
	data := make([]Entry, count)
	for i := range data {
		data[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	ix, err := BulkLoad(t, Config{}, data[:count*3/4])
	if err != nil {
		panic(err)
	}
	for _, e := range data[count*3/4:] {
		if err := ix.Add(e.ID, e.Series); err != nil {
			panic(err)
		}
	}
	return ix, data
}

func matchIDs(ms []Match) map[int64]bool {
	out := map[int64]bool{}
	for _, m := range ms {
		out[m.ID] = true
	}
	return out
}

func TestAddValidation(t *testing.T) {
	ix := New(core.NewPAA(testN, testDim), Config{})
	if err := ix.Add(1, make(ts.Series, 5)); err == nil {
		t.Error("wrong length accepted")
	}
	if err := ix.Add(1, make(ts.Series, testN)); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
	if err := ix.Add(1, make(ts.Series, testN)); err == nil {
		t.Error("duplicate id accepted")
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, ok := ix.Get(1); !ok {
		t.Error("Get(1) failed")
	}
	if _, ok := ix.Get(99); ok {
		t.Error("Get(99) should miss")
	}
}

// A series with a NaN or infinite value, or extremes too far apart for their
// difference to be finite, is refused by Add and BulkLoad in RAM and out of
// core alike, before anything is stored: no bound is defined on it. As a
// query it is refused by NewPlan, KNNCtx, RangeQueryCtx and LinearScan, and
// not as ErrQueryLength: a NaN sample would refine every candidate and match
// none, an infinite one rank arbitrary ids at +Inf.
func TestNonFiniteSeriesRejected(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	ctx := context.Background()
	queryErr := func(err error) bool { return err != nil && !errors.Is(err, ErrQueryLength) }
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	holding := func(v float64) ts.Series {
		x := make(ts.Series, testN)
		x[3] = v
		if v == math.MaxFloat64 {
			x[4] = -v
		}
		return x
	}
	for _, cfg := range []Config{{}, {Pager: pagedSpace(t, 16)}} {
		for _, v := range values {
			x := holding(v)
			ix := New(tr, cfg)
			if err := ix.Add(1, x); err == nil {
				t.Errorf("paged=%v: Add accepted a series holding %v", cfg.Pager != nil, v)
			}
			if err := ix.BulkAdd([]Entry{{ID: 2, Series: make(ts.Series, testN)}, {ID: 3, Series: x}}); err == nil {
				t.Errorf("paged=%v: BulkAdd accepted a series holding %v", cfg.Pager != nil, v)
			}
			if err := ix.Add(4, make(ts.Series, testN)); err != nil || ix.Len() != 1 {
				t.Errorf("paged=%v: after the refusals Add = %v, Len = %d", cfg.Pager != nil, err, ix.Len())
			}
			if _, err := ix.NewPlan(x, 0.1); !queryErr(err) {
				t.Errorf("paged=%v: NewPlan of a query holding %v: err = %v", cfg.Pager != nil, v, err)
			}
			if ms, _, err := ix.KNNCtx(ctx, x, 5, 0.1, Limits{}); !queryErr(err) || ms != nil {
				t.Errorf("paged=%v: KNNCtx of a query holding %v: %v, err = %v", cfg.Pager != nil, v, ms, err)
			}
			if ms, _, err := ix.RangeQueryCtx(ctx, x, 1e9, 0.1, Limits{}); !queryErr(err) || ms != nil {
				t.Errorf("paged=%v: RangeQueryCtx of a query holding %v: %v, err = %v", cfg.Pager != nil, v, ms, err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := NewLinearScan(testN, true)
	if err := scan.Add(1, make(ts.Series, testN)); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		x := holding(v)
		if _, _, err := scan.KNNCtx(ctx, x, 5, 0.1, Limits{}); !queryErr(err) {
			t.Errorf("LinearScan.KNNCtx of a query holding %v: err = %v", v, err)
		}
		if _, _, err := scan.RangeQueryCtx(ctx, x, 1e9, 0.1, Limits{}); !queryErr(err) {
			t.Errorf("LinearScan.RangeQueryCtx of a query holding %v: err = %v", v, err)
		}
	}
}

// The fundamental exactness property, for every transform of Lemma 3's
// family: the index returns exactly the brute-force oracle's matches (no
// false negatives from pruning, no false positives after refinement).
func TestRangeQueryMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tr := range []core.Transform{
		core.NewPAA(testN, testDim),
		core.NewKeoghPAA(testN, testDim),
		core.NewDFT(testN, testDim),
		core.NewHaar(testN, testDim),
	} {
		ix, data := buildIndex(r, tr, 300)
		for trial := 0; trial < 10; trial++ {
			q := randomWalk(r, testN)
			epsilon := float64(testN) * (0.2 + r.Float64()*0.6) * 0.1
			delta := 0.02 + r.Float64()*0.18
			got, stats := ix.RangeQuery(q, epsilon, delta)
			want := within(BruteForce(data, q, delta, len(data), nil), epsilon)
			if !sameMatches(got, want) {
				t.Fatalf("%s:\n got %v\nwant %v", tr.Name(), got, want)
			}
			if stats.Candidates < len(want) {
				t.Fatalf("%s: candidates %d < matches %d (false negative)", tr.Name(), stats.Candidates, len(want))
			}
		}
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 400)
	for trial := 0; trial < 10; trial++ {
		q := randomWalk(r, testN)
		k := 1 + r.Intn(10)
		delta := 0.05 + r.Float64()*0.15
		got, _ := ix.KNN(q, k, delta)
		if want := BruteForce(data, q, delta, k, nil); len(got) != k || !sameMatches(got, want) {
			t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, want)
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 5)
	q := randomWalk(r, testN)
	if got, _ := ix.KNN(q, 0, 0.1); got != nil {
		t.Error("k=0 should return nil")
	}
	got, _ := ix.KNN(q, 10, 0.1)
	if len(got) != 5 {
		t.Errorf("k > size: got %d, want 5", len(got))
	}
}

func TestSelfQueryFindsSelf(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 100)
	for i := 0; i < 10; i++ {
		got, _ := ix.KNN(data[i].Series, 1, 0.1)
		if len(got) != 1 || got[0].Dist != 0 {
			t.Fatalf("self-query %d: %+v", i, got)
		}
	}
}

// Property: New_PAA retrieves no more candidates than Keogh_PAA for the
// same query (tighter feature boxes prune more) — the mechanism behind
// Figures 8-10.
func TestPropNewPAAFewerCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ixNew, data := buildIndex(r, core.NewPAA(testN, testDim), 300)
	ixKeogh := New(core.NewKeoghPAA(testN, testDim), Config{})
	for _, e := range data {
		if err := ixKeogh.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomWalk(rr, testN)
		epsilon := float64(testN) * 0.05
		delta := 0.02 + rr.Float64()*0.18
		_, sNew := ixNew.RangeQuery(q, epsilon, delta)
		_, sKeogh := ixKeogh.RangeQuery(q, epsilon, delta)
		return sNew.Candidates <= sKeogh.Candidates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: stats are internally consistent.
func TestPropStatsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomWalk(rr, testN)
		matches, s := ix.RangeQuery(q, float64(testN)*0.08, 0.1)
		return s.LBSurvivors <= s.Candidates &&
			s.ExactDTW == s.LBSurvivors &&
			len(matches) <= s.LBSurvivors &&
			s.PageAccesses > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLinearScanNoLB(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	scanLB := NewLinearScan(testN, true)
	scanRaw := NewLinearScan(testN, false)
	for i := 0; i < 150; i++ {
		x := randomWalk(r, testN)
		scanLB.Add(int64(i), x)
		scanRaw.Add(int64(i), x)
	}
	q := randomWalk(r, testN)
	a, sa := scanLB.RangeQuery(q, float64(testN)*0.05, 0.1)
	b, sb := scanRaw.RangeQuery(q, float64(testN)*0.05, 0.1)
	if len(a) != len(b) {
		t.Fatalf("LB pruning changed results: %d vs %d", len(a), len(b))
	}
	if sa.ExactDTW > sb.ExactDTW {
		t.Error("LB pruning did not reduce exact DTW count")
	}
	if sb.ExactDTW != 150 {
		t.Errorf("raw scan should compute DTW for all: %d", sb.ExactDTW)
	}
}

func TestRangeQueryEmptyIndex(t *testing.T) {
	ix := New(core.NewPAA(testN, testDim), Config{})
	q := make(ts.Series, testN)
	got, _ := ix.RangeQuery(q, 1, 0.1)
	if len(got) != 0 {
		t.Error("matches on empty index")
	}
}

func TestCandidatesGrowWithWidth(t *testing.T) {
	// Larger warping widths loosen the bounds -> more candidates (the
	// x-axis trend of Figures 8-10).
	r := rand.New(rand.NewSource(8))
	ix, _ := buildIndex(r, core.NewKeoghPAA(testN, testDim), 400)
	q := randomWalk(r, testN)
	epsilon := float64(testN) * 0.05
	var prev int
	for _, delta := range []float64{0.02, 0.1, 0.2} {
		_, s := ix.RangeQuery(q, epsilon, delta)
		if s.Candidates < prev {
			t.Fatalf("candidates decreased with width: %d -> %d", prev, s.Candidates)
		}
		prev = s.Candidates
	}
}

// A malformed query must never kill a serving goroutine: the Ctx variants
// report ErrQueryLength and the convenience wrappers return no matches.
func TestQueryBadLengthErrors(t *testing.T) {
	ix := New(core.NewPAA(testN, testDim), Config{})
	if err := ix.Add(1, make(ts.Series, testN)); err != nil {
		t.Fatal(err)
	}
	bad := make(ts.Series, 3)
	if _, _, err := ix.RangeQueryCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
		t.Errorf("RangeQueryCtx err = %v, want ErrQueryLength", err)
	}
	if _, _, err := ix.KNNCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
		t.Errorf("KNNCtx err = %v, want ErrQueryLength", err)
	}
	if got, _ := ix.RangeQuery(bad, 1, 0.1); len(got) != 0 {
		t.Errorf("RangeQuery on bad length returned %d matches", len(got))
	}
	if got, _ := ix.KNN(bad, 1, 0.1); len(got) != 0 {
		t.Errorf("KNN on bad length returned %d matches", len(got))
	}
}

// KNN consistency: the kth best distance from KNN equals the threshold at
// which a range query returns exactly >= k results.
func TestKNNRangeConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	q := randomWalk(r, testN)
	const k = 5
	knn, _ := ix.KNN(q, k, 0.1)
	eps := knn[k-1].Dist
	rq, _ := ix.RangeQuery(q, eps+1e-9, 0.1)
	if len(rq) < k {
		t.Errorf("range at kth distance returned %d < %d", len(rq), k)
	}
	ids := matchIDs(rq)
	for _, m := range knn {
		if !ids[m.ID] {
			t.Errorf("kNN result %d missing from range query", m.ID)
		}
	}
}

func BenchmarkRangeQueryNewPAA(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 2000)
	q := randomWalk(r, testN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RangeQuery(q, float64(testN)*0.05, 0.1)
	}
}

func BenchmarkDTWvsIndex(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 1000)
	scan := NewLinearScan(testN, true)
	for _, e := range data {
		scan.Add(e.ID, e.Series)
	}
	q := randomWalk(r, testN)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.RangeQuery(q, float64(testN)*0.05, 0.1)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.RangeQuery(q, float64(testN)*0.05, 0.1)
		}
	})
}

// The retrofit claim: one index serves both Euclidean and DTW queries. At
// δ = 0 the band is 0, the query's envelope is the query and its feature box
// the query's point, and LB_Keogh and banded DTW are the same
// early-abandoning Euclidean sum, so RangeQuery(q, ε, 0) is the Euclidean
// range query: it equals a brute-force Euclidean scan to the bit.
func TestRetrofitEuclideanRange(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 400)
	matched := 0
	for trial := 0; trial < 40; trial++ {
		// Half the queries are a stored series plus noise, so that most
		// have matches; half are fresh random walks.
		q, eps := randomWalk(r, testN), float64(testN)*(0.03+r.Float64()*0.06)
		if trial%2 == 0 {
			q = append(ts.Series(nil), data[r.Intn(len(data))].Series...)
			for i := range q {
				q[i] += 0.3 * r.NormFloat64()
			}
			eps = 2 + 8*r.Float64()
		}
		got, stats, err := ix.RangeQueryCtx(context.Background(), q, eps, 0, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		var want []Match
		for _, e := range data {
			if d := math.Sqrt(ts.SquaredDist(e.Series, q)); d <= eps {
				want = append(want, Match{ID: e.ID, Dist: d})
			}
		}
		sortMatches(want)
		if !sameMatches(got, want) {
			t.Fatalf("trial %d, eps %v:\n got %v\nwant %v", trial, eps, got, want)
		}
		matched += len(got)
		if stats.PageAccesses == 0 {
			t.Error("no page accounting")
		}
		// A Euclidean match is always a DTW match at the same epsilon
		// (DTW <= Euclidean), so the DTW result set is a superset.
		dtwGot, _ := ix.RangeQuery(q, eps, 0.1)
		dtwIDs := matchIDs(dtwGot)
		for _, m := range got {
			if !dtwIDs[m.ID] {
				t.Fatalf("Euclidean match %d missing from DTW results", m.ID)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no query matched; the comparison proved nothing")
	}
}

// A range radius must be a non-negative number. Squared, −1 used to serve
// as 1 (a query found its own series "within −1"), and NaN refined every
// candidate to match none. The Ctx and Plan variants of the index and the
// scan baseline say so; the convenience wrappers return no matches.
func TestRangeRadiusRejected(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 300)
	scan := NewLinearScan(testN, true)
	for _, e := range data {
		if err := scan.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	q := data[17].Series
	p, err := ix.NewPlan(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, eps := range []float64{-1, math.Inf(-1), math.NaN()} {
		if _, _, err := ix.RangeQueryCtx(ctx, q, eps, 0.1, Limits{}); err == nil {
			t.Errorf("eps %v: RangeQueryCtx accepted it", eps)
		}
		if _, _, err := ix.RangeQueryPlan(ctx, p, eps, Limits{}); err == nil {
			t.Errorf("eps %v: RangeQueryPlan accepted it", eps)
		}
		if _, _, err := scan.RangeQueryCtx(ctx, q, eps, 0.1, Limits{}); err == nil {
			t.Errorf("eps %v: LinearScan.RangeQueryCtx accepted it", eps)
		}
		if got, st := ix.RangeQuery(q, eps, 0.1); len(got) != 0 || st.ExactDTW != 0 {
			t.Errorf("eps %v: RangeQuery returned %d matches after %d exact DTWs", eps, len(got), st.ExactDTW)
		}
		if got, st := scan.RangeQuery(q, eps, 0.1); len(got) != 0 || st.ExactDTW != 0 {
			t.Errorf("eps %v: LinearScan.RangeQuery returned %d matches after %d exact DTWs", eps, len(got), st.ExactDTW)
		}
	}
	// Zero is a radius: the query's own series is at distance 0.
	if got, _ := ix.RangeQuery(q, 0, 0.1); len(got) != 1 || got[0] != (Match{ID: 17}) {
		t.Errorf("eps 0: got %v, want the query's own series", got)
	}
}
