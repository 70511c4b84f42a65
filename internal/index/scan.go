package index

import (
	"context"

	"warping/internal/rtree"
	"warping/internal/ts"
)

// LinearScan is the brute-force baseline (the approach of the direct-audio
// matchers the paper criticizes as "very slow"): every query verifies
// against every database series, optionally short-circuited by the same
// lower-bound cascade as the Index. It is what the experiments compare an
// index against (the tests' reference is BruteForce, which shares no code
// with the cascade) — not a way to serve: RAM only, no removal, not
// synchronized. Queries take the same
// context, Limits and QueryStats as the Index's; LogicalPages and
// PageAccesses are always zero (there is no index structure to page
// through). Candidates stream straight out of the columnar arena in
// insertion order, so verification (and its stats) is deterministic.
type LinearScan struct {
	st corpus
	// UseLB enables the lower-bound cascade pre-check (global
	// lower-bounding pipeline of Yi et al.); disable for the pure
	// brute-force baseline.
	UseLB bool
}

// NewLinearScan creates an empty scan baseline for series of length n.
func NewLinearScan(n int, useLB bool) *LinearScan {
	return &LinearScan{st: newCorpus(n), UseLB: useLB}
}

// Add appends a series. The series must have the scan's series length and
// a new id; violations return an error.
func (s *LinearScan) Add(id int64, x ts.Series) error {
	_, err := s.st.add(id, x)
	return err
}

// Len returns the database size.
func (s *LinearScan) Len() int { return s.st.len() }

// RangeQuery returns all matches within epsilon under banded DTW with
// warping width delta. Stats report exact-DTW invocations; Candidates is
// the full database size (no index pruning) for a query that runs to the
// end. A negative or NaN epsilon returns no matches (RangeQueryCtx says why).
func (s *LinearScan) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := s.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx is RangeQuery with cancellation and work limits: every
// stored series is a candidate, refined through the shared cascade
// (LB_Keogh, LB_KeoghEC, LB_Improved, budgeted DTW). A query of the wrong length
// returns ErrQueryLength, and a negative or NaN epsilon an error.
func (s *LinearScan) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := s.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	sc := getScratch()
	rf := newRefiner(&s.st, makePlan(q, delta, s.st.n, nil), s.UseLB, lim, sc)
	if err := rf.within(epsilon); err != nil {
		putScratch(sc)
		return nil, QueryStats{}, err
	}
	stats, err := s.scan(ctx, &rf)
	return finish(sc.out, sc, true), stats, err
}

// KNN returns the k nearest series under banded DTW, closest first.
func (s *LinearScan) KNN(q ts.Series, k int, delta float64) ([]Match, QueryStats) {
	out, stats, _ := s.KNNCtx(context.Background(), q, k, delta, Limits{})
	return out, stats
}

// KNNCtx is KNN with cancellation and work limits: a single pass over the
// database through the shared refinement (cascade at the running kth-best
// cutoff when UseLB is set; full DTW per series otherwise). A query of the
// wrong length returns ErrQueryLength.
func (s *LinearScan) KNNCtx(ctx context.Context, q ts.Series, k int, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := s.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	sc := getScratch()
	rf := newRefiner(&s.st, makePlan(q, delta, s.st.n, nil), s.UseLB, lim, sc)
	rf.best = sc.topK(k)
	stats, err := s.scan(ctx, &rf)
	return finish(rf.best.sortedInto(sc), sc, false), stats, err
}

// scan is the baseline's candidate source: every slot, in insertion order.
// There is no index structure to page through, so no node visits.
func (s *LinearScan) scan(ctx context.Context, rf *refiner) (QueryStats, error) {
	for slot, id := range s.st.ids {
		if !rf.refine(ctx, id, int32(slot)) {
			break
		}
	}
	return rf.done(rtree.Stats{}, false)
}
