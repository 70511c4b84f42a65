package index

import (
	"context"
	"fmt"

	"warping/internal/core"
	"warping/internal/gridfile"
	"warping/internal/ts"
)

// GridIndex is a DTW similarity index backed by a grid file instead of an
// R*-tree — the alternative multidimensional structure the paper cites
// (used by StatStream [35]). It implements Searcher with the same
// exactness guarantees and the same shared refinement cascade as the
// R*-tree backend; kNN uses an expanding-ring search around the query's
// feature-space box (cells are visited shell by shell outward, stopping
// when the next shell's distance bound exceeds the current kth-best).
// PageAccesses counts grid buckets visited.
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

// SeriesLen returns the required series length n.
func (ix *GridIndex) SeriesLen() int { return ix.st.n }

// Transform returns the envelope transform in use.
func (ix *GridIndex) Transform() core.Transform { return ix.st.transform }

// Add inserts a normal-form series under id. The feature vector is
// computed once here and cached for the verification cascade.
func (ix *GridIndex) Add(id int64, x ts.Series) error {
	feat, slot, err := ix.st.add(id, x)
	if err != nil {
		return err
	}
	ix.grid.InsertItem(gridfile.Item{ID: id, Slot: slot, Point: feat})
	return nil
}

// Remove deletes the series stored under id. It returns false when the id
// is unknown. When tombstones come to dominate the arena it compacts and
// rebuilds the grid over the fresh arena (unpinning the old generation's
// feature slices).
func (ix *GridIndex) Remove(id int64) bool {
	feat, ok := ix.st.remove(id)
	if !ok {
		return false
	}
	if !ix.grid.Delete(id, feat) {
		// The grid and the corpus must stay in lockstep.
		panic("index: series present in corpus but not in grid")
	}
	if ix.st.shouldCompact() {
		if ix.st.paged != nil {
			// All-or-nothing column compaction; on failure the tombstones
			// stay and the next removal retries.
			if ix.st.compactPagedCols() != nil {
				return true
			}
		} else {
			ix.st.compact()
		}
		ix.rebuild()
	}
	return true
}

// Close releases the grid backend's spill files (paged mode; no-op in RAM).
func (ix *GridIndex) Close() error { return ix.st.close() }

// rebuild reconstructs the grid over the current arena generation, with
// item slots tagging the fresh slot assignment (slots only move at
// compaction, and compaction is always followed by this rebuild). A spill
// read failure panics: a rebuild has no error channel, and a partial one
// would break the corpus/structure lockstep.
func (ix *GridIndex) rebuild() {
	g := gridfile.New(ix.st.transform.OutputLen(), ix.grid.CellSize())
	err := ix.st.visitFeats(func(slot int32, id int64, feat []float64) {
		g.InsertItem(gridfile.Item{ID: id, Slot: slot, Point: feat})
	})
	if err != nil {
		panic(fmt.Sprintf("index: rebuilding grid: %v", err))
	}
	ix.grid = g
}

// Get returns the stored series for an id.
func (ix *GridIndex) Get(id int64) (ts.Series, bool) { return ix.st.get(id) }

// Visit calls fn for every stored (id, series) pair, in insertion order.
func (ix *GridIndex) Visit(fn func(id int64, x ts.Series)) { ix.st.visit(fn) }

// RangeQuery returns all series within epsilon under banded DTW with
// warping width delta, exactly as Index.RangeQuery.
func (ix *GridIndex) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx implements Searcher: the grid's box search feeds the same
// refinement cascade (and the same cancellation, budget and stats
// semantics) as the R*-tree backend. A query of the wrong length returns
// ErrQueryLength.
func (ix *GridIndex) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := ix.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	p := makePlan(q, delta, ix.st.n, ix.st.transform, ix.st.coarse)
	sc := getScratch()
	out, stats, err := ix.rangePlan(ctx, p, epsilon, lim, sc)
	return finish(out, sc, true), stats, err
}

func (ix *GridIndex) rangePlan(ctx context.Context, p *Plan, epsilon float64, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	fe := p.featureEnvelope()
	var gstats gridfile.Stats
	sc.gitems = ix.grid.RangeSearchBoxInto(fe.Lower, fe.Upper, epsilon, sc.gitems[:0], &gstats)
	var stats QueryStats
	stats.Candidates = len(sc.gitems)
	stats.LogicalPages = gstats.BucketAccesses
	if ix.st.paged == nil {
		// RAM mode: every bucket visit is as real as it gets. In paged mode
		// the grid directory itself stays in RAM; the real page reads are
		// the corpus-column misses verifyRange adds below.
		stats.PageAccesses = stats.LogicalPages
	}

	// fe is nil in the cascade: the grid's box search already applied the
	// exact point-to-box distance test at this epsilon, so re-running the
	// box pre-check per candidate could never prune — only cost O(dim).
	// The O(4) coarse pre-stage runs ahead of the O(n) LB_Keogh.
	rq := &rangeQuery{lbQuery: p.cascade(nil, p.coarseEnvelope(), true), eps2: epsilon * epsilon}
	sc.slots = sc.slots[:0]
	for _, it := range sc.gitems {
		sc.slots = append(sc.slots, it.Slot)
	}
	out, err := verifyRange(ctx, &ix.st, rq, sc.slots, lim, &stats, sc.out[:0])
	sc.out = out
	return out, stats, err
}

// KNN returns the k nearest series under banded DTW, closest first.
func (ix *GridIndex) KNN(q ts.Series, k int, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.KNNCtx(context.Background(), q, k, delta, Limits{})
	return out, stats
}

// KNNCtx implements Searcher using an expanding-ring search: grid cells
// are visited shell by shell outward from the query's feature-space box.
// Every point in a ring-r cell is at least (r-1)·cellSize from the box in
// feature space, and the feature-space box distance lower-bounds the DTW
// distance (Theorem 1), so stopping when that shell bound exceeds the
// current kth-best exact distance dismisses no true neighbor — the same
// optimal multi-step argument as the R*-tree's best-first traversal, at
// shell granularity. Within a shell, candidates are pruned individually
// against their exact feature-space box distance before entering the
// shared cascade.
func (ix *GridIndex) KNNCtx(ctx context.Context, q ts.Series, k int, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if err := ix.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	p := makePlan(q, delta, ix.st.n, ix.st.transform, ix.st.coarse)
	sc := getScratch()
	out, stats, err := ix.knnPlan(ctx, p, k, lim, sc)
	return finish(out, sc, false), stats, err
}

func (ix *GridIndex) knnPlan(ctx context.Context, p *Plan, k int, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	if k <= 0 || ix.grid.Len() == 0 {
		return nil, QueryStats{}, nil
	}
	fe := p.fe

	v := getVerifier()
	defer putVerifier(v)

	var gstats gridfile.Stats
	var stats QueryStats
	r := ix.st.reader()
	defer r.release()
	s := &knnState{lbQuery: p.cascade(nil, p.coarseEnvelope(), true), v: v, r: &r, best: sc.topK(k), lim: lim, stats: &stats}
	cLo, cHi := ix.grid.CellRange(fe.Lower, fe.Upper)
	maxRing := ix.grid.MaxRing(cLo, cHi)
	stop := false
	for ring := 0; ring <= maxRing && !stop; ring++ {
		// Everything in shell `ring` is at least (ring-1)·cellSize from the
		// query box in feature space.
		if float64(ring-1)*ix.grid.CellSize() > s.cutoff() {
			break
		}
		ix.grid.VisitBoxShell(cLo, cHi, ring, &gstats, func(bucket []gridfile.Item) {
			if stop {
				return
			}
			gstats.BucketAccesses++
			for _, it := range bucket {
				// Exact feature-space lower bound for this candidate; the
				// shell bound above is only the coarse shell-level floor.
				if core.SquaredDistToBox(it.Point, fe) > s.cutoff()*s.cutoff() {
					continue
				}
				if !s.refine(ctx, it.ID, it.Slot) {
					stop = true
					return
				}
			}
		})
	}
	stats.LogicalPages = gstats.BucketAccesses
	if ix.st.paged != nil {
		stats.PageAccesses = r.misses()
	} else {
		stats.PageAccesses = stats.LogicalPages
	}
	return s.best.sortedInto(sc), stats, s.err
}
