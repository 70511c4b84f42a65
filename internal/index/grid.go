package index

import (
	"context"

	"warping/internal/core"
	"warping/internal/gridfile"
	"warping/internal/ts"
)

// GridIndex is a DTW range-query baseline backed by a grid file instead of
// an R*-tree — the alternative multidimensional structure the paper cites
// (used by StatStream [35]). It exists for the experiments' structure
// comparison and as a test reference, not for serving: RAM only, insert
// and range search only, no removal, no kNN, not synchronized. Its box
// search feeds the same refinement cascade as the Index, so it returns the
// same matches; LogicalPages and PageAccesses count grid buckets visited.
type GridIndex struct {
	st   corpus
	grid *gridfile.Grid
}

// NewGrid creates a grid-file DTW index. cellSize is the grid cell edge
// length in feature-space units.
func NewGrid(t core.Transform, cellSize float64) *GridIndex {
	return &GridIndex{
		st:   newCorpus(t, 0),
		grid: gridfile.New(t.OutputLen(), cellSize),
	}
}

// Len returns the number of indexed series.
func (ix *GridIndex) Len() int { return ix.grid.Len() }

// Add inserts a normal-form series under id. The series must have the
// transform's input length and the id must be new; violations return an
// error. The feature vector is computed once here and cached for the
// verification cascade.
func (ix *GridIndex) Add(id int64, x ts.Series) error {
	feat, slot, err := ix.st.add(id, x)
	if err != nil {
		return err
	}
	ix.grid.Insert(gridfile.Item{ID: id, Slot: slot, Point: feat})
	return nil
}

// RangeQuery returns all series within epsilon under banded DTW with
// warping width delta, exactly as Index.RangeQuery.
func (ix *GridIndex) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx is RangeQuery with the cancellation, budget and stats
// semantics of Index.RangeQueryCtx. A query of the wrong length returns
// ErrQueryLength.
func (ix *GridIndex) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := ix.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	p := makePlan(q, delta, ix.st.n, ix.st.transform)
	var gstats gridfile.Stats
	items := ix.grid.RangeSearchBox(p.fe.Lower, p.fe.Upper, epsilon, &gstats)
	var stats QueryStats
	stats.Candidates = len(items)
	stats.LogicalPages = gstats.BucketAccesses
	stats.PageAccesses = stats.LogicalPages

	// fe is nil in the cascade: the grid's box search already applied the
	// exact point-to-box distance test at this epsilon, so re-running the
	// box pre-check per candidate could never prune — only cost O(dim).
	rq := &rangeQuery{lbQuery: p.cascade(nil, true), eps2: epsilon * epsilon}
	sc := getScratch()
	for _, it := range items {
		sc.slots = append(sc.slots, it.Slot)
	}
	out, err := verifyRange(ctx, &ix.st, rq, sc.slots, lim, &stats, sc.out[:0])
	sc.out = out
	return finish(out, sc, true), stats, err
}
