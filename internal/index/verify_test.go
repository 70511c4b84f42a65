package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// bigCandidateQuery returns a 600-series Index with a query whose candidate
// set is large (>= 64): a range verification with real work in every stage.
func bigCandidateQuery(t testing.TB, seed int64) (*Index, ts.Series, float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 600)
	q := randomWalk(r, testN)
	epsilon := 40.0
	_, stats := ix.RangeQuery(q, epsilon, 0.1)
	if stats.Candidates < 64 {
		t.Skipf("only %d candidates; seed needs adjusting", stats.Candidates)
	}
	return ix, q, epsilon
}

// Cancellation mid-verification of a large candidate set must stop promptly
// and report ctx.Err(). (The TestParallelVerification* names date from the
// shard fan-out that verified in parallel until PR 28; the floor file knows
// the tests by them.)
func TestParallelVerificationCancellation(t *testing.T) {
	ix, q, epsilon := bigCandidateQuery(t, 121)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	lim := Limits{CandidateHook: func() { once.Do(cancel) }}
	defer cancel()
	_, _, err := ix.RangeQueryCtx(ctx, q, epsilon, 0.1, lim)
	if !errors.Is(err, context.Canceled) {
		// The hook only fires for LB survivors; if none survived, the
		// cancel never happened and a nil error is correct.
		if ctx.Err() == nil {
			t.Skip("no candidate survived the LB cascade")
		}
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The per-query MaxExactDTW budget must hold exactly: no more exact
// computations (or hook calls) than the cap, and Degraded set.
func TestParallelVerificationBudget(t *testing.T) {
	ix, q, epsilon := bigCandidateQuery(t, 122)
	_, full, err := ix.RangeQueryCtx(context.Background(), q, epsilon, 0.1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if full.ExactDTW < 4 {
		t.Skip("too little exact work to exercise the budget")
	}
	budget := full.ExactDTW / 2
	var hookCalls int
	lim := Limits{MaxExactDTW: budget, CandidateHook: func() { hookCalls++ }}
	_, stats, err := ix.RangeQueryCtx(context.Background(), q, epsilon, 0.1, lim)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Error("budgeted query not marked degraded")
	}
	if stats.ExactDTW > budget {
		t.Errorf("ExactDTW = %d exceeds budget %d", stats.ExactDTW, budget)
	}
	if hookCalls > budget {
		t.Errorf("hook fired %d times, budget %d", hookCalls, budget)
	}
	if stats.LBSurvivors != stats.ExactDTW {
		t.Errorf("LBSurvivors %d != ExactDTW %d", stats.LBSurvivors, stats.ExactDTW)
	}
}

// Concurrent queries share the verifier and scratch pools; run under -race
// in CI.
func TestParallelVerificationConcurrentRace(t *testing.T) {
	ix, q, epsilon := bigCandidateQuery(t, 123)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, _, err := ix.RangeQueryCtx(context.Background(), q, epsilon, 0.1, Limits{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Removing a series must not recompute the transform: the feature vector
// cached at Add time is reused, so Remove works even for transforms whose
// Apply is expensive, and stays consistent with what the tree stored.
func TestRemoveUsesCachedFeature(t *testing.T) {
	tr := &countingTransform{Transform: core.NewPAA(testN, testDim)}
	ix := New(tr, Config{})
	r := rand.New(rand.NewSource(124))
	for i := 0; i < 50; i++ {
		ix.MustAdd(int64(i), randomWalk(r, testN))
	}
	applies := tr.applies
	for i := 0; i < 50; i++ {
		if !ix.Remove(int64(i)) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	if tr.applies != applies {
		t.Errorf("Remove recomputed Apply %d times, want 0", tr.applies-applies)
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d after removing everything", ix.Len())
	}
}

type countingTransform struct {
	core.Transform
	applies int
}

func (c *countingTransform) Apply(x ts.Series) []float64 {
	c.applies++
	return c.Transform.Apply(x)
}

// The cascade inside the index must never drop a true match: exercised
// against the brute-force oracle at many epsilons.
func TestCascadeNoFalseDismissals(t *testing.T) {
	r := rand.New(rand.NewSource(125))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 400)
	for _, epsilon := range []float64{5, 15, 30, 45} {
		q := randomWalk(r, testN)
		got, _ := ix.RangeQuery(q, epsilon, 0.1)
		if want := within(BruteForce(data, q, 0.1, len(data), nil), epsilon); !sameMatches(got, want) {
			t.Fatalf("eps=%v:\n got %v\nwant %v", epsilon, got, want)
		}
	}
}

// BenchmarkVerifyCandidates measures the verification cascade alone on a
// warm workspace: steady state must be allocation-free (the acceptance
// criterion of the zero-allocation pipeline).
func BenchmarkVerifyCandidates(b *testing.B) {
	r := rand.New(rand.NewSource(126))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 2000)
	q := randomWalk(r, testN)
	p := makePlan(q, 0.1, testN, ix.transform)
	box := rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}
	epsilon := 10.0 // plenty of LB work, no matches to accumulate
	items, err := ix.fetchRange(box, epsilon, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(items) == 0 {
		b.Skip("no candidates")
	}
	v := getVerifier()
	defer putVerifier(v)
	eps2 := epsilon * epsilon
	// The production range path's cascade: the tree's leaf filter already
	// applied the fine box test to these candidates.
	c := p.cascade(true)
	rd := ix.st.reader()
	defer rd.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			o, x, _ := v.cascade(&c, &rd, int(it.Slot), eps2)
			if o != lbPassed {
				continue
			}
			v.ws.SquaredBandedWithin(x, q, p.band, eps2)
		}
	}
	b.ReportMetric(float64(len(items)), "candidates")
}

func BenchmarkRangeQueryLargeCandidateSet(b *testing.B) {
	r := rand.New(rand.NewSource(127))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 2000)
	q := randomWalk(r, testN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RangeQuery(q, 40, 0.1)
	}
}

// BenchmarkLBImproved times LB_Improved's second pass on the calls a song
// search makes: for each of benchSongCorpus's hums, every phrase that
// survives LB_Keogh at the hum's final 5th-best song distance (the cutoff
// the search ends on, so the abandon rate is the search's upper end), at the
// serving band δ = 0.1 (k = 5) and the poor-singer band δ = 0.2 (k = 12).
// k127 is the worst case: the δ = 0.1 pairs at full DTW width and an
// infinite cutoff, so every call builds its whole envelope. One op is every
// call once; ns/call is the number to compare.
func BenchmarkLBImproved(b *testing.B) {
	entries, songOf, hums := benchSongCorpus()
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{}, entries)
	if err != nil {
		b.Fatal(err)
	}
	type call struct {
		q, x     ts.Series
		env      dtw.Envelope
		k        int
		fwd, cut float64
	}
	capture := func(delta float64) (calls []call) {
		for _, q := range hums {
			p, err := ix.NewPlan(q, delta)
			if err != nil {
				b.Fatal(err)
			}
			ms, _, err := ix.KNNPlan(context.Background(), p, 5, Limits{GroupOf: func(id int64) (int64, bool) { return songOf[id], true }})
			if err != nil || len(ms) < 5 {
				b.Fatalf("%d matches, %v", len(ms), err)
			}
			w2 := ms[4].Dist * ms[4].Dist * tieSlack
			for _, e := range entries {
				if fwd, ok := dtw.SquaredDistToEnvelopeWithin(e.Series, p.env, w2); ok {
					calls = append(calls, call{q, e.Series, p.env, p.band, fwd, w2})
				}
			}
		}
		return calls
	}
	base := capture(0.1)
	wide := make([]call, len(base))
	for i, c := range base {
		env := dtw.NewEnvelope(c.q, testN-1)
		fwd, _ := dtw.SquaredDistToEnvelopeWithin(c.x, env, math.Inf(1))
		wide[i] = call{c.q, c.x, env, testN - 1, fwd, math.Inf(1)}
	}
	for _, set := range []struct {
		name  string
		calls []call
	}{{"k5", base}, {"k12", capture(0.2)}, {"k127", wide}} {
		b.Run(set.name, func(b *testing.B) {
			var ws dtw.Workspace
			abandoned := 0
			for _, c := range set.calls {
				if _, ok := ws.SquaredLBImprovedWithin(c.q, c.x, c.env, c.k, c.fwd, c.cut); !ok {
					abandoned++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for _, c := range set.calls {
					ws.SquaredLBImprovedWithin(c.q, c.x, c.env, c.k, c.fwd, c.cut)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set.calls)), "ns/call")
			b.ReportMetric(float64(len(set.calls))/float64(len(hums)), "calls/hum")
			b.ReportMetric(float64(abandoned)/float64(len(set.calls)), "abandon_ratio")
		})
	}
}
