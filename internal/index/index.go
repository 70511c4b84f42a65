// Package index implements the paper's end-to-end indexing scheme for
// similarity search under Dynamic Time Warping (Section 4.3):
//
//  1. every database series (already in UTW + shift normal form) is reduced
//     to an N-dimensional feature vector and indexed by an R-tree, packed by
//     Sort-Tile-Recursive loading, with what was added since the last pack
//     in a flat delta beside it;
//  2. a query series is expanded to its k-envelope, the envelope is
//     transformed container-invariantly into a feature-space box, and an
//     epsilon-range (or kNN) search on the tree returns candidates;
//  3. candidates pass through a cascade of ever-tighter lower bounds — the
//     full-dimensional LB_Keogh filter, LB_KeoghEC (the query against the
//     candidate's own envelope) and the two-pass LB_Improved bound — and
//     finally the exact banded DTW computation, every stage
//     early-abandoning at the query threshold, in RAM and out of core alike.
//
// Step 2 is one walk for both query kinds: a range query is the kNN's
// best-first stream cut at epsilon. Step 3 is one loop for every query
// (verify.go): the tree walk and the LinearScan baseline are candidate
// sources feeding the same refine, which holds the cutoff (a fixed ε², or
// the shrinking kth-best distance) and the sink (the match list, or the
// top-k heap) as plain fields. At warping width 0 the envelope is the
// query itself and the cascade and DTW are the early-abandoning Euclidean
// distance, so a range query at δ = 0 is the Euclidean range query over the
// same index: the paper's retrofit claim, with no second path.
//
// Theorem 1 (for LB_Improved, Lemire's two-pass argument) guarantees no
// false negatives at every stage. The QueryStats returned with each query
// expose the candidate counts and page accesses that Figures 8-10 of the
// paper report.
//
// The refinement hot path is allocation-free in steady state: all DP rows
// and LB_Improved scratch live in the query's pooled scratch. Each series'
// feature vector is computed once, at Add (or bulk load) time, and stored
// in the tree or the delta alone.
package index

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// ErrQueryLength reports a query whose length does not match the index's
// series length. Returned (never panicked) by the query methods so a
// malformed request cannot kill a serving goroutine.
var ErrQueryLength = errors.New("query length mismatch")

// Match is one query result.
type Match struct {
	ID int64
	// Dist is the exact banded DTW distance to the query.
	Dist float64
}

// QueryStats reports the work done by one query, in the paper's
// implementation-bias-free measures. The JSON tags are the /query
// response's keys: the server embeds this struct as it comes.
type QueryStats struct {
	// Candidates is the number of candidates refined: series the
	// feature-space filter passed (every series, for the scan baseline)
	// that the query reached before it ended — all of them unless it was
	// cancelled or stopped by its budget.
	Candidates int `json:"candidates"`
	// CoarseSurvivors is an alias of Candidates: the 4-dim coarse box stage
	// it counted past is gone, and the frozen benchmark still reads the
	// field (and the coarse_survivors key). ROADMAP item 2a drops it.
	CoarseSurvivors int `json:"coarse_survivors"`
	// KeoghSurvivors is the number of candidates remaining after LB_Keogh.
	KeoghSurvivors int `json:"keogh_survivors"`
	// ECSurvivors is the number of candidates remaining after LB_KeoghEC,
	// the distance from the query to the candidate's own envelope.
	ECSurvivors int `json:"ec_survivors"`
	// LBSurvivors is the number of candidates remaining after the whole
	// lower-bound cascade (LB_Improved second pass included).
	LBSurvivors int `json:"lb_survivors"`
	// ExactDTW is the number of exact banded DTW computations performed.
	ExactDTW int `json:"exact_dtw"`
	// LogicalPages is the number of R-tree nodes visited — the
	// implementation-bias-free simulated measure the paper's figures report,
	// independent of cache state.
	LogicalPages int `json:"logical_pages"`
	// PageAccesses is the number of real page reads the query caused: the
	// buffer-pool misses of its leaf visits and its series reads when the
	// index runs out-of-core (Config.Pager). When everything is in
	// RAM there is no pool, and PageAccesses equals LogicalPages (every
	// logical visit is as real as it gets).
	PageAccesses int `json:"page_accesses"`
	// FrontierPushes is the number of entries the best-first tree walk put
	// on its frontier (rtree.Stats.FrontierPushes): for a kNN near the
	// candidate count while the walk is bounded by its cutoff, several
	// times it if every entry of every opened leaf were pushed; for a range
	// query the nodes and items within epsilon. In-process only; 0 for the
	// scan baseline.
	FrontierPushes int `json:"-"`
	// Degraded reports that the query hit its Limits.MaxExactDTW budget
	// and returned without refining every candidate: the results are the
	// best found within budget, not guaranteed exact.
	Degraded bool `json:"degraded,omitempty"`
	// Cached reports that the result set was served from a result cache
	// without executing the query (qbh layer); the other counters then
	// describe the original execution that populated the cache entry.
	Cached bool `json:"cached,omitempty"`
}

// Add accumulates the counters of another execution into s: the coordinator
// reports the cumulative work of the groups it asked. Degraded and Cached
// are sticky.
func (s *QueryStats) Add(o QueryStats) {
	s.Candidates += o.Candidates
	s.CoarseSurvivors += o.CoarseSurvivors
	s.KeoghSurvivors += o.KeoghSurvivors
	s.ECSurvivors += o.ECSurvivors
	s.LBSurvivors += o.LBSurvivors
	s.ExactDTW += o.ExactDTW
	s.LogicalPages += o.LogicalPages
	s.PageAccesses += o.PageAccesses
	s.FrontierPushes += o.FrontierPushes
	s.Degraded = s.Degraded || o.Degraded
	s.Cached = s.Cached || o.Cached
}

// Limits bounds the work a single query may perform and, for kNN, names
// what it ranks (GroupOf). The zero value means unlimited, ungrouped. The
// query's context is its other limit: it is checked once per candidate,
// before the candidate is refined.
type Limits struct {
	// MaxExactDTW caps the number of exact DTW verifications per query.
	// When the cap is reached the query stops refining, returns the
	// matches found so far, and sets QueryStats.Degraded. Zero means no
	// cap.
	MaxExactDTW int
	// GroupOf, when non-nil, makes a kNN query rank groups of series
	// instead of series: it returns the k best distinct groups, each
	// represented by its closest member (Match.ID stays the member's id),
	// ordered by (distance, group). The cutoff that prunes candidates and
	// ends the traversal is then the kth-best group distance. It must be
	// defined for every id the index holds. Nil is the identity grouping —
	// every series its own group, the plain kNN. Range queries ignore it.
	// It runs under the index's read lock and must not block or call into
	// the index.
	GroupOf func(id int64) int64
}

// exhausted reports whether the query's exact-DTW budget is spent; done is
// the count performed so far.
func (l *Limits) exhausted(done int) bool {
	return l.MaxExactDTW > 0 && done >= l.MaxExactDTW
}

// groupOf resolves an id's group: GroupOf, or the identity grouping.
func (l *Limits) groupOf(id int64) int64 {
	if l.GroupOf == nil {
		return id
	}
	return l.GroupOf(id)
}

// Index is a DTW similarity index over fixed-length normal-form series,
// backed by an R-tree. It is internally synchronized by one RWMutex:
// queries are read-pure and run concurrently with each other under the read
// lock, Add/BulkAdd/Close take the write lock. The unexported
// bulkLoad and repack assume the lock held.
//
// The index has one shape in both modes: an immutable base tree, STR-packed
// at the node capacity of one page (rtree.PageCapacity at the pager's page
// size, or at pager.DefaultPageSize in RAM), and a flat delta of the items
// added since the base was packed. Every query pushes the delta onto the
// base walk's frontier, so one ranked stream serves base and delta. When
// the delta reaches deltaMergeMin or base/4 items, base and delta merge
// into a fresh base (repackLive). Out of core (Config.Pager) the base's
// leaves live one per page in a write-once page file read through the
// buffer pool, and the delta's series sit in the corpus's RAM arena tail;
// in RAM the base is a heap tree. Where the data lives decides what a query reads, never the
// tree's shape, so both modes report the same counters but PageAccesses.
// The tree and the delta are the only owner of the feature vectors; the
// corpus holds the series.
//
// Records are only ever added, so every item a candidate stream yields is
// live.
//
// Layout rule: a record's slot is its entry's position. Whenever a base is
// packed — first build or delta merge, both through repack — the corpus is
// rewritten with it, slot = rank in the tree's leaf order; the record added
// i-th since is delta entry i, at slot base.Len()+i, until the next repack.
type Index struct {
	mu        sync.RWMutex
	transform core.Transform
	sp        *pager.Space // out-of-core page space; nil in RAM mode
	st        corpus
	base      *rtree.Tree   // packed at the last repack; empty before the first
	delta     rtree.Entries // added since, in append order

	// retryAt is the delta size a merge waits for after a failed one: the
	// failed size plus another deltaThreshold(). 0 once a merge succeeds.
	retryAt int
	merges  MergeStats
}

// MergeStats counts the delta merges Add ran: the /stats "index" section.
type MergeStats struct {
	Merges        int64  `json:"merges"`
	MergeFailures int64  `json:"merge_failures"`
	LastError     string `json:"last_merge_error"`
}

// Config controls index construction. The tree's node capacity is not a
// knob: it is one page's, at the pager's page size or in RAM the default.
type Config struct {
	// Pager, when non-nil, switches indexes built with this config into
	// out-of-core mode: the series column (exact byte records where every
	// series has one, float64 series otherwise; see corpus) and the base
	// tree's leaves live in two page files behind the space's shared buffer
	// pool, written once by each repack; series added since stay in RAM
	// until the next. The Space is owned by the caller and may be shared by
	// many indexes.
	Pager *pager.Space
}

// New creates an index using the given envelope transform. All series added
// and queried must have length transform.InputLen(). A paged index creates
// no page file until its first repack (BulkAdd, or the first delta merge).
func New(t core.Transform, cfg Config) *Index {
	return &Index{
		transform: t,
		sp:        cfg.Pager,
		st:        newCorpus(t.InputLen()),
		base:      rtree.New(t.OutputLen(), rtree.Config{}),
		delta:     rtree.NewEntries(t.OutputLen()),
	}
}

// NewSharded is New under the name and signature the frozen bench/ compiles
// against (bench/sut.go); the one index is the only layout, so n must be 1.
// ROADMAP item 2a deletes it with the benchmark's call.
func NewSharded(structure string, t core.Transform, cfg Config, n int) (*Index, error) {
	if (structure != "" && structure != "rtree") || n != 1 {
		return nil, fmt.Errorf("index: structure %q with %d shards: only one R-tree index exists", structure, n)
	}
	return New(t, cfg), nil
}

// Add inserts a series under the given id. The series must already be in
// normal form (fixed length n, typically mean-subtracted); it is retained.
// Adding an existing id replaces nothing and returns an error.
func (ix *Index) Add(id int64, x ts.Series) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.st.add(id, x); err != nil {
		return err
	}
	ix.delta.Append(id, ix.transform.Apply(x))
	if ix.delta.Len() >= max(ix.deltaThreshold(), ix.retryAt) {
		ix.merge()
	}
	return nil
}

// merge folds the delta into a fresh base, under the write lock. The add
// that asked for it succeeded and a failed (paged) merge leaves corpus, base
// and delta intact, so the error is not the caller's: it is counted, and
// the next merge waits for another deltaThreshold() adds rather than retry
// on every add.
func (ix *Index) merge() {
	if err := ix.repackLive(); err != nil {
		ix.merges.MergeFailures++
		ix.merges.LastError = err.Error()
		ix.retryAt = ix.delta.Len() + ix.deltaThreshold()
	} else {
		ix.merges.Merges++
		ix.retryAt = 0
	}
}

// MergeStats reports the delta merges Add has run and the last failure's
// text.
func (ix *Index) MergeStats() MergeStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.merges
}

// CheckSeries returns the error Add refuses x with for its values, if any: a
// length other than the index's, or values whose range is not a finite
// float64. A caller that checks first knows Add can fail only on a duplicate
// id.
func (ix *Index) CheckSeries(x ts.Series) error {
	if err := checkSeries(ix.transform.InputLen(), x); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// deltaMergeMin is the smallest delta size that triggers a merge into the
// base. Below it a rebuild cannot pay for itself; above it the threshold
// scales with the base (base/4), so merge work stays amortized O(log n) per
// insert, and a query's delta scan stays a fraction of its base walk.
const deltaMergeMin = 1024

// deltaThreshold is the delta size at which the next Add folds base and
// delta into a fresh base.
func (ix *Index) deltaThreshold() int {
	return max(deltaMergeMin, ix.base.Len()/4)
}

// Close releases the index's spill files (paged mode; RAM indexes no-op).
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	first := ix.base.Close(ix.sp)
	if err := ix.st.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// RangeQuery returns all series whose banded DTW distance to q is at most
// epsilon, with the band radius derived from the warping width delta
// (delta = (2k+1)/n). Results are sorted by distance. At delta 0 this is
// the Euclidean range query (the paper's retrofit: the DTW index serves
// classic Euclidean queries unchanged). The query series must be in the
// same normal form as the indexed data; a query of the wrong length, or a
// negative or NaN epsilon, returns no matches (use RangeQueryCtx for the
// error).
func (ix *Index) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx is RangeQuery with cancellation and work limits. The
// context is checked between candidates: a cancelled query stops promptly
// (without finishing the current DTW computation's candidate loop) and
// returns the matches verified so far together with ctx.Err(). A query of
// the wrong length returns ErrQueryLength, and a negative or NaN epsilon an
// error. Queries never mutate the index, so any number may run
// concurrently.
func (ix *Index) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	p, err := ix.NewPlan(q, delta)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return ix.RangeQueryPlan(ctx, p, epsilon, lim)
}

// RangeQueryPlan is RangeQueryCtx against a precomputed plan: no envelope
// or transform work happens here, so repeated calls share the plan's one
// computation. Matches are sorted by (distance, id). A negative or NaN
// epsilon is an error. The candidate source is the kNN's best-first walk,
// with the delta pushed onto its frontier, cut at epsilon: a range query is
// distance browsing stopped at its radius.
func (ix *Index) RangeQueryPlan(ctx context.Context, p *Plan, epsilon float64, lim Limits) ([]Match, QueryStats, error) {
	sc := getScratch()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rf := newRefiner(&ix.st, p, true, lim, sc)
	if err := rf.within(epsilon); err != nil {
		putScratch(sc)
		return nil, QueryStats{}, err
	}
	// The walk applied the exact point-to-box distance test at this
	// epsilon; the cascade starts at LB_Keogh. The stream is drained first
	// and refined in ascending slot order — the tree's leaf order, delta
	// last — so a leaf's candidates are read from neighbouring records and
	// each column page is read once, where the stream's distance order
	// would interleave leaves.
	sc.walk = rtree.Stats{}
	it := ix.base.NNIterOn(&sc.nn, rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}, &sc.walk)
	it.Push(ix.delta, epsilon)
	cands := slices.Grow(sc.cands[:0], rangeCands)
	for nb, ok := it.Next(epsilon); ok; nb, ok = it.Next(epsilon) {
		cands = append(cands, nb)
	}
	sc.cands, rf.err = cands, it.Err()
	it.Close()
	if rf.err == nil {
		slices.SortFunc(cands, func(a, b rtree.Neighbor) int { return cmp.Compare(a.Slot, b.Slot) })
		for _, c := range cands {
			if !rf.refine(ctx, c.ID, c.Slot) {
				break
			}
		}
	}
	stats, err := rf.done(sc.walk, ix.sp != nil)
	return finish(sc.out, sc, true), stats, err
}

// rangeCands is the capacity a range query's candidate list starts at,
// 24 KiB: one allocation, where growing by append from empty takes a dozen
// on the first query after a collection emptied the scratch pool.
const rangeCands = 1024

// KNN returns the k nearest series to q under banded DTW (warping width
// delta), closest first, using the optimal multi-step algorithm: candidates
// are drawn from the index in ascending feature-space lower-bound order and
// refined with exact DTW until the next lower bound exceeds the current
// kth-best exact distance. Guaranteed exact (no false dismissals). A query
// of the wrong length returns no matches (use KNNCtx for the error).
func (ix *Index) KNN(q ts.Series, k int, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.KNNCtx(context.Background(), q, k, delta, Limits{})
	return out, stats
}

// KNNCtx is KNN with cancellation and work limits. The context is checked
// between candidates; on cancellation the neighbors verified so far are
// returned (closest first) together with ctx.Err(). If lim.MaxExactDTW is
// hit, traversal stops, stats.Degraded is set, and the exactness guarantee
// no longer holds for the tail of the result. A query of the wrong length
// returns ErrQueryLength. Queries never mutate the index, so any number may
// run concurrently.
func (ix *Index) KNNCtx(ctx context.Context, q ts.Series, k int, delta float64, lim Limits) ([]Match, QueryStats, error) {
	p, err := ix.NewPlan(q, delta)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return ix.KNNPlan(ctx, p, k, lim)
}

// KNNPlan is KNNCtx against a precomputed plan; see RangeQueryPlan. With
// lim.GroupOf set it returns the k best distinct groups (Limits.GroupOf),
// sorted by (distance, group). The best-first walk is the candidate
// source: the delta's items are pushed onto the base walk's frontier, so
// one ascending-distance stream ranks base and delta together.
func (ix *Index) KNNPlan(ctx context.Context, p *Plan, k int, lim Limits) ([]Match, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	sc := getScratch()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rf := newRefiner(&ix.st, p, true, lim, sc)
	rf.best = sc.topK(k)

	// The walker is handed the current cutoff and keeps off its frontier
	// what lies beyond it. The cutoff only ever shrinks, so whatever it
	// skips is still beyond the cutoff whenever it could have surfaced — it
	// could only have ended the loop, as the stream's end now does.
	sc.walk = rtree.Stats{}
	it := ix.base.NNIterOn(&sc.nn, rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}, &sc.walk)
	it.Push(ix.delta, rf.best.cutoff())
	for {
		// Termination: the stream ends at the first candidate whose
		// feature-space bound exceeds the kth best group distance.
		nb, ok := it.Next(rf.best.cutoff())
		if !ok || !rf.refine(ctx, nb.ID, nb.Slot) {
			break
		}
	}
	if rf.err == nil {
		rf.err = it.Err()
	}
	it.Close() // before finish hands the scratch, and the frontier in it, back
	out := rf.best.sortedInto(sc)
	stats, err := rf.done(sc.walk, ix.sp != nil)
	return finish(out, sc, false), stats, err
}

// sortMatches orders matches by (distance, id), the deterministic result
// order of every query method.
func sortMatches(out []Match) {
	slices.SortFunc(out, func(a, b Match) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// kept is one group's entry in a topK: its closest member seen so far.
type kept struct {
	Match
	group int64
}

// after reports whether a ranks after b in the (distance, group) result
// order.
func (a kept) after(b kept) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.group > b.group)
}

// cmpKept is the (distance, group) result order as a sort comparison.
func cmpKept(a, b kept) int {
	switch {
	case b.after(a):
		return -1
	case a.after(b):
		return 1
	}
	return 0
}

// topK keeps the k best distinct groups offered so far, each by its closest
// member, in a max-heap ordered by (distance, group): worst() is O(1) and
// offer() O(log k) — pos finds a group's entry without a scan, so Rank and
// RankPhrase, which ask for k = every song or phrase, stay O(n log n). It is
// the one top-k of the package: the phrase-level kNN is the identity
// grouping (group = id). Its storage
// lives in the query's pooled scratch (scratch.topK), so steady-state kNN
// queries allocate no heap memory for it.
type topK struct {
	k   int
	m   []kept        // max-heap; m[0] ranks last among the kept groups
	pos map[int64]int // group -> index in m
}

// topK readies the scratch-resident top-k heap for a query.
func (sc *scratch) topK(k int) *topK {
	if sc.top.pos == nil {
		sc.top.pos = make(map[int64]int)
	}
	sc.top.k = k
	sc.top.m = sc.top.m[:0]
	return &sc.top
}

func (t *topK) full() bool { return len(t.m) >= t.k }

// cutoff is the kNN's pruning threshold: the kth-best group distance,
// infinite until k groups are held. A candidate whose lower bound exceeds
// it cannot improve any group into the top k: its own group, if held,
// already has a distance at or below the cutoff.
func (t *topK) cutoff() float64 {
	if t.full() {
		return t.worst()
	}
	return math.Inf(1)
}

// worst returns the kth-best group distance. Callers must ensure the heap
// is non-empty (guarded by full() with k > 0).
func (t *topK) worst() float64 { return t.m[0].Dist }

// offer presents member id of group at distance dist. A group already held
// keeps the closer member (the smaller id on equal distance); a new group
// enters while there is room or when it ranks before the current worst,
// which it then evicts.
func (t *topK) offer(id, group int64, dist float64) {
	e := kept{Match{ID: id, Dist: dist}, group}
	if i, held := t.pos[group]; held {
		if cur := t.m[i]; dist < cur.Dist || (dist == cur.Dist && id < cur.ID) {
			t.m[i] = e
			t.down(i)
		}
		return
	}
	if len(t.m) < t.k {
		t.m = append(t.m, e)
		t.up(len(t.m) - 1)
		return
	}
	if !t.m[0].after(e) {
		return
	}
	delete(t.pos, t.m[0].group)
	t.m[0] = e
	t.down(0)
}

// up restores the heap above i and records where the entry lands.
func (t *topK) up(i int) {
	e := t.m[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.after(t.m[p]) {
			break
		}
		t.m[i] = t.m[p]
		t.pos[t.m[i].group] = i
		i = p
	}
	t.m[i] = e
	t.pos[e.group] = i
}

// down restores the heap below i and records where the entry lands.
func (t *topK) down(i int) {
	e := t.m[i]
	for n := len(t.m); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && t.m[r].after(t.m[c]) {
			c = r
		}
		if !t.m[c].after(e) {
			break
		}
		t.m[i] = t.m[c]
		t.pos[t.m[i].group] = i
		i = c
	}
	t.m[i] = e
	t.pos[e.group] = i
}

// sortedInto writes the kept members into the scratch output buffer in
// (distance, group) order — (distance, id) under the identity grouping.
// The returned slice aliases sc.out.
func (t *topK) sortedInto(sc *scratch) []Match {
	slices.SortFunc(t.m, cmpKept)
	out := sc.out[:0]
	for _, e := range t.m {
		out = append(out, e.Match)
	}
	sc.out = out
	return out
}

// Visit calls fn for every stored (id, series) pair. The order is slot order
// — deterministic for a given history, but unspecified to callers: it follows
// the tree's leaves, not insertion. fn runs under the read lock and must not
// call back into ix.
func (ix *Index) Visit(fn func(id int64, x ts.Series)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.st.visit(fn)
}
