// Query plans: the per-query constants of one logical query — the query
// series, its k-envelope, the feature-space envelope box and the band
// radius — computed exactly once and threaded through RangeQueryPlan and
// KNNPlan. A Plan is immutable after construction and safe to share across
// goroutines and across repeated queries.
//
// This file also owns the pooled query scratch: the candidate buffer, the
// kNN heap, the match output buffer a query builds its result in and the
// DTW workspace it refines with, so steady-state queries allocate only
// their returned matches.
package index

import (
	"sync"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// Plan is the precomputed state of one logical query. Obtain one from
// Index.NewPlan (or internally via makePlan) and pass it to
// RangeQueryPlan/KNNPlan any number of times: the envelope transform runs
// exactly once per Plan however many times the plan is reused.
type Plan struct {
	q    ts.Series
	band int
	env  dtw.Envelope
	fe   core.FeatureEnvelope // the tree's query box; empty for the linear scan
}

// makePlan computes the plan for query q at warping width delta over
// series of length n. tr is nil for the linear scan, which has no tree to
// hand a feature box to.
func makePlan(q ts.Series, delta float64, n int, tr core.Transform) *Plan {
	band := dtw.BandRadius(n, delta)
	p := &Plan{q: q, band: band, env: dtw.NewEnvelope(q, band)}
	if tr != nil {
		p.fe = tr.ApplyEnvelope(p.env)
	}
	return p
}

// scratch is the reusable buffer set of one query: the tree walk's
// frontier and counters (a walker holds on to its Stats, which would
// otherwise move to the heap once a query), a range query's candidate
// list, the kNN top-k heap, the match output buffer, the refiner's DTW
// workspace and the series a paged byte record is decoded into. Pooled so
// that repeated queries run allocation-free in steady state. A query builds
// its matches in sc.out, so a scratch goes back to the pool only once they
// are copied out (finish).
type scratch struct {
	nn    rtree.Frontier
	walk  rtree.Stats
	cands []rtree.Neighbor
	out   []Match
	top   topK
	ws    dtw.Workspace
	x     []float64
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	// Drop value references so pooled buffers don't pin match data; keep
	// capacity.
	sc.cands = sc.cands[:0]
	sc.out = sc.out[:0]
	sc.top.m = sc.top.m[:0]
	clear(sc.top.pos)
	scratchPool.Put(sc)
}

// finish copies the scratch-aliased matches into caller-owned memory,
// sorts them if asked, and re-pools the scratch.
func finish(out []Match, sc *scratch, sortThem bool) []Match {
	var res []Match
	if len(out) > 0 {
		res = make([]Match, len(out))
		copy(res, out)
	}
	putScratch(sc)
	if sortThem {
		sortMatches(res)
	}
	return res
}

// NewPlan validates q and computes the query plan: envelope, feature
// envelope and band radius, exactly once. The plan may then be passed to
// RangeQueryPlan and KNNPlan any number of times. A query of the wrong
// length returns ErrQueryLength.
func (ix *Index) NewPlan(q ts.Series, delta float64) (*Plan, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := ix.st.checkQuery(q); err != nil {
		return nil, err
	}
	return makePlan(q, delta, ix.st.n, ix.transform), nil
}
