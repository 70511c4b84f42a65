package index

import (
	"context"

	"warping/internal/core"
	"warping/internal/ts"
)

// LinearScan is the brute-force baseline (the approach of the direct-audio
// matchers the paper criticizes as "very slow"): every query verifies
// against every database series, optionally short-circuited by the same
// lower-bound cascade as the indexed backends. It implements Searcher, so
// it gains context cancellation, Limits/Degraded budgets and QueryStats
// accounting; LogicalPages is always zero (there is no index structure to
// page through), and PageAccesses counts the corpus-column pool misses when
// the scan runs out-of-core. Candidates stream straight out of the columnar
// arena in slot (= insertion) order, so verification (and its stats) is
// deterministic.
type LinearScan struct {
	st corpus
	// UseLB enables the lower-bound cascade pre-check (global
	// lower-bounding pipeline of Yi et al.); disable for the pure
	// brute-force baseline.
	UseLB bool
}

// NewLinearScan creates an empty scan baseline for series of length n,
// with no feature transform (the cascade skips the feature-box pre-check).
func NewLinearScan(n int, useLB bool) *LinearScan {
	return &LinearScan{st: newCorpus(nil, n), UseLB: useLB}
}

// NewLinearScanTransform is NewLinearScan with a feature transform: the
// cascade then also applies the O(dim) feature-box pre-check, making the
// scan the strongest non-indexed baseline (and the BackendScan Searcher).
func NewLinearScanTransform(t core.Transform, useLB bool) *LinearScan {
	return &LinearScan{st: newCorpus(t, 0), UseLB: useLB}
}

// Add appends a series. The series must have length SeriesLen() and a new
// id; violations return an error (previously this panicked — the Searcher
// contract forbids that).
func (s *LinearScan) Add(id int64, x ts.Series) error {
	_, _, err := s.st.add(id, x)
	return err
}

// Remove deletes the series stored under id. It returns false when the id
// is unknown. When tombstones come to dominate the arena it compacts; the
// scan has no spatial structure to rebuild afterwards.
func (s *LinearScan) Remove(id int64) bool {
	if _, ok := s.st.remove(id); !ok {
		return false
	}
	if s.st.shouldCompact() {
		if s.st.paged != nil {
			// All-or-nothing; on failure the tombstones stay and the next
			// removal retries.
			_ = s.st.compactPagedCols()
		} else {
			s.st.compact()
		}
	}
	return true
}

// Close releases the scan's spill files (paged mode; no-op in RAM).
func (s *LinearScan) Close() error { return s.st.close() }

// Len returns the database size.
func (s *LinearScan) Len() int { return s.st.len() }

// SeriesLen returns the required series length n.
func (s *LinearScan) SeriesLen() int { return s.st.n }

// Get returns the stored series for an id.
func (s *LinearScan) Get(id int64) (ts.Series, bool) { return s.st.get(id) }

// Visit calls fn for every stored (id, series) pair, in insertion order.
func (s *LinearScan) Visit(fn func(id int64, x ts.Series)) { s.st.visit(fn) }

// RangeQuery returns all matches within epsilon under banded DTW with
// warping width delta. Stats report exact-DTW invocations; Candidates is
// always the full database size (no index pruning).
func (s *LinearScan) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := s.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx implements Searcher: every stored series is a candidate,
// refined through the same shared cascade (coarse New_PAA and feature-box
// pre-checks when present, LB_Keogh, LB_Improved, budgeted DTW) as the
// indexed backends. A query of the wrong length returns ErrQueryLength.
func (s *LinearScan) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := s.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	p := makePlan(q, delta, s.st.n, s.st.transform, s.st.coarse)
	sc := getScratch()
	out, stats, err := s.rangePlan(ctx, p, epsilon, lim, sc)
	return finish(out, sc, true), stats, err
}

func (s *LinearScan) rangePlan(ctx context.Context, p *Plan, epsilon float64, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	sc.slots = s.st.liveSlots(sc.slots[:0])
	var stats QueryStats
	stats.Candidates = len(sc.slots)

	// No spatial filter ran: the cascade applies the fine box test itself.
	rq := &rangeQuery{lbQuery: p.cascade(p.featureEnvelope(), p.coarseEnvelope(), s.UseLB), eps2: epsilon * epsilon}
	out, err := verifyRange(ctx, &s.st, rq, sc.slots, lim, &stats, sc.out[:0])
	sc.out = out
	return out, stats, err
}

// KNN returns the k nearest series under banded DTW, closest first.
func (s *LinearScan) KNN(q ts.Series, k int, delta float64) ([]Match, QueryStats) {
	out, stats, _ := s.KNNCtx(context.Background(), q, k, delta, Limits{})
	return out, stats
}

// KNNCtx implements Searcher: a single pass over the database through the
// shared kNN refinement (cascade at the running kth-best cutoff when UseLB
// is set; full DTW per series otherwise). A query of the wrong length
// returns ErrQueryLength.
func (s *LinearScan) KNNCtx(ctx context.Context, q ts.Series, k int, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := s.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	p := makePlan(q, delta, s.st.n, s.st.transform, s.st.coarse)
	sc := getScratch()
	out, stats, err := s.knnPlan(ctx, p, k, lim, sc)
	return finish(out, sc, false), stats, err
}

func (s *LinearScan) knnPlan(ctx context.Context, p *Plan, k int, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	v := getVerifier()
	defer putVerifier(v)

	var stats QueryStats
	r := s.st.reader()
	defer r.release()
	st := &knnState{lbQuery: p.cascade(nil, p.coarseEnvelope(), s.UseLB), v: v, r: &r, best: sc.topK(k), lim: lim, stats: &stats}
	for slot, id := range s.st.ids {
		if s.st.alive[slot] && !st.refine(ctx, id, int32(slot)) {
			break
		}
	}
	stats.PageAccesses += r.misses()
	return st.best.sortedInto(sc), stats, st.err
}
