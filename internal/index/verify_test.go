package index

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
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

// The per-query MaxExactDTW budget must hold exactly: no more exact
// computations than the cap, and Degraded set.
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
	_, stats, err := ix.RangeQueryCtx(context.Background(), q, epsilon, 0.1, Limits{MaxExactDTW: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Error("budgeted query not marked degraded")
	}
	if stats.ExactDTW > budget {
		t.Errorf("ExactDTW = %d exceeds budget %d", stats.ExactDTW, budget)
	}
	if stats.LBSurvivors != stats.ExactDTW {
		t.Errorf("LBSurvivors %d != ExactDTW %d", stats.LBSurvivors, stats.ExactDTW)
	}
}

// Concurrent queries share the scratch pool; run under -race
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

// BenchmarkVerifyCandidates measures the refinement loop alone on a warm
// scratch: steady state must be allocation-free (the acceptance criterion
// of the zero-allocation pipeline).
func BenchmarkVerifyCandidates(b *testing.B) {
	r := rand.New(rand.NewSource(126))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 2000)
	q := randomWalk(r, testN)
	p := makePlan(q, 0.1, testN, ix.transform)
	box := rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}
	epsilon := 10.0 // plenty of LB work, no matches to accumulate
	it := ix.base.NNIterOn(new(rtree.Frontier), box, ix.delta, epsilon, nil)
	var items []rtree.Neighbor
	for nb, ok := it.Next(epsilon); ok; nb, ok = it.Next(epsilon) {
		items = append(items, nb)
	}
	it.Close()
	slices.SortFunc(items, func(a, b rtree.Neighbor) int { return cmp.Compare(a.Slot, b.Slot) })
	if len(items) == 0 {
		b.Skip("no candidates")
	}
	sc := getScratch()
	defer putScratch(sc)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The production range path's refiner, in its slot order: the walk
		// already applied the fine box test to these candidates.
		rf := newRefiner(&ix.st, p, true, Limits{}, sc)
		if err := rf.within(epsilon); err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			rf.refine(ctx, it.ID, it.Slot)
		}
		sc.out = sc.out[:0]
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
			ms, _, err := ix.KNNPlan(context.Background(), p, 5, Limits{GroupOf: func(id int64) int64 { return songOf[id] }})
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
