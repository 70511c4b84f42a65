// Package index implements the paper's end-to-end indexing scheme for
// similarity search under Dynamic Time Warping (Section 4.3):
//
//  1. every database series (already in UTW + shift normal form) is reduced
//     to an N-dimensional feature vector and inserted into an R*-tree;
//  2. a query series is expanded to its k-envelope, the envelope is
//     transformed container-invariantly into a feature-space box, and an
//     epsilon-range (or kNN) search on the tree returns candidates;
//  3. candidates pass through a cascade of ever-tighter lower bounds — the
//     full-dimensional LB_Keogh filter and the two-pass LB_Improved bound —
//     and finally the exact banded DTW computation, every stage
//     early-abandoning at the query threshold.
//
// Theorem 1 (for LB_Improved, Lemire's two-pass argument) guarantees no
// false negatives at every stage. The QueryStats returned with each query
// expose the candidate counts and page accesses that Figures 8-10 of the
// paper report.
//
// The refinement hot path is allocation-free in steady state: all DP rows
// and LB_Improved scratch live in pooled dtw.Workspaces; see verify.go. Each
// series' feature vector is computed once, at Add (or bulk load) time, and
// stored in the R*-tree alone.
package index

import (
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
// implementation-bias-free measures.
type QueryStats struct {
	// Candidates is the number of series returned by the index structure
	// (feature-space filter) before any refinement.
	Candidates int
	// CoarseSurvivors is an alias of Candidates: the 4-dim coarse box stage
	// it counted past is gone, and the frozen benchmark still reads the
	// field (and the server's coarse_survivors key). ROADMAP item 2a drops it.
	CoarseSurvivors int
	// KeoghSurvivors is the number of candidates remaining after LB_Keogh.
	KeoghSurvivors int
	// LBSurvivors is the number of candidates remaining after the whole
	// lower-bound cascade (LB_Improved second pass included).
	LBSurvivors int
	// ExactDTW is the number of exact banded DTW computations performed.
	ExactDTW int
	// LogicalPages is the number of R*-tree nodes visited — the
	// implementation-bias-free simulated measure the paper's figures report,
	// independent of cache state.
	LogicalPages int
	// PageAccesses is the number of real page reads the query caused: the
	// buffer-pool misses of its leaf visits and series reads when
	// the index runs out-of-core (Config.Pager). When everything is in
	// RAM there is no pool, and PageAccesses equals LogicalPages (every
	// logical visit is as real as it gets).
	PageAccesses int
	// FrontierPushes is the number of entries the kNN's best-first tree
	// walkers put on their frontiers (rtree.Stats.FrontierPushes): near the
	// candidate count while the walk is bounded by the kNN cutoff, several
	// times it if every entry of every opened leaf were pushed. In-process
	// only; range queries leave it 0.
	FrontierPushes int
	// Degraded reports that the query hit its Limits.MaxExactDTW budget
	// and returned without refining every candidate: the results are the
	// best found within budget, not guaranteed exact.
	Degraded bool
	// Cached reports that the result set was served from a result cache
	// without executing the query (qbh layer); the other counters then
	// describe the original execution that populated the cache entry.
	Cached bool
}

// Add accumulates the counters of another execution into s: the coordinator
// reports the cumulative work of the groups it asked. Degraded and Cached
// are sticky.
func (s *QueryStats) Add(o QueryStats) {
	s.Candidates += o.Candidates
	s.CoarseSurvivors += o.CoarseSurvivors
	s.KeoghSurvivors += o.KeoghSurvivors
	s.LBSurvivors += o.LBSurvivors
	s.ExactDTW += o.ExactDTW
	s.LogicalPages += o.LogicalPages
	s.PageAccesses += o.PageAccesses
	s.FrontierPushes += o.FrontierPushes
	s.Degraded = s.Degraded || o.Degraded
	s.Cached = s.Cached || o.Cached
}

// Limits bounds the work a single query may perform and, for kNN, names
// what it ranks (GroupOf). The zero value means unlimited, ungrouped.
type Limits struct {
	// MaxExactDTW caps the number of exact DTW verifications per query.
	// When the cap is reached the query stops refining, returns the
	// matches found so far, and sets QueryStats.Degraded. Zero means no
	// cap.
	MaxExactDTW int
	// CandidateHook, when non-nil, is invoked before each exact-DTW
	// verification. It exists for fault injection in tests (slow-query
	// simulation) and lightweight instrumentation; it runs under the index's
	// read lock and must not call into the index.
	CandidateHook func()
	// GroupOf, when non-nil, makes a kNN query rank groups of series
	// instead of series: it returns the k best distinct groups, each
	// represented by its closest member (Match.ID stays the member's id),
	// ordered by (distance, group). The cutoff that prunes candidates and
	// ends the traversal is then the kth-best group distance. ok false
	// means the id belongs to no group any more (qbh: a phrase whose song
	// was just removed): it is skipped before the cascade and spends no
	// budget. Nil is the identity grouping — every series its own group,
	// the plain kNN. Range queries ignore it. It runs under the index's
	// read lock and must not block or call into the index.
	GroupOf func(id int64) (group int64, ok bool)
}

// exhausted reports whether the query's exact-DTW budget is spent; done is
// the count performed so far.
func (l *Limits) exhausted(done int) bool {
	return l.MaxExactDTW > 0 && done >= l.MaxExactDTW
}

// groupOf resolves an id's group: GroupOf, or the identity grouping.
func (l *Limits) groupOf(id int64) (int64, bool) {
	if l.GroupOf == nil {
		return id, true
	}
	return l.GroupOf(id)
}

// Index is a DTW similarity index over fixed-length normal-form series,
// backed by an R*-tree. It is internally synchronized by one RWMutex:
// queries are read-pure and run concurrently with each other under the read
// lock, Add/Remove/BulkAdd/Close take the write lock. The unexported
// rangePlan, knnPlan, bulkLoad and repack assume the lock held.
//
// In RAM mode (Config.Pager nil) tree holds every item. In out-of-core
// mode the index is a two-part structure: ptree is an immutable paged base
// whose leaves live one-per-page in the buffer pool's spill files, and tree
// is a small in-RAM delta absorbing inserts since the last merge; when the
// delta outgrows deltaMergeMin or base/4, base and delta merge into a fresh
// paged base via STR bulk loading at the page-capacity node size. The trees
// are the only owner of the feature vectors; the corpus holds the series.
//
// Removal is one path in both modes: the slot is tombstoned in the corpus,
// every tree keeps the dead item, and the corpus's alive[] drops it from
// every candidate stream (nextAlive, fetchRange). When tombstones dominate
// the corpus (shouldCompact), corpus and trees are repacked without them.
//
// Layout rule, both modes: whenever a tree is bulk-built — first build, RAM
// compaction, paged merge or compaction, all through repack — the corpus is
// rewritten with it, slot = rank in the tree's leaf order. Records added
// since carry append-order slots until the next repack.
type Index struct {
	mu        sync.RWMutex
	transform core.Transform
	sp        *pager.Space // out-of-core page space; nil in RAM mode
	st        corpus
	tree      *rtree.Tree
	ptree     *rtree.PagedTree // paged base; nil in RAM mode or before first merge
	// compactions counts tombstone compactions (test observability).
	compactions int
}

// Config controls index construction. The in-RAM tree (in paged mode, the
// delta) takes the R*-tree's default node size; the paged base's node
// capacity is derived from the pager's page size.
type Config struct {
	// Pager, when non-nil, switches indexes built with this config into
	// out-of-core mode: the series column and the R*-tree base's leaves
	// live in page files behind the space's shared buffer pool. The Space
	// is owned by the caller and may be shared by many indexes.
	Pager *pager.Space
}

// New creates an index using the given envelope transform. All series added
// and queried must have length transform.InputLen(). It panics if paged
// spill files cannot be created.
func New(t core.Transform, cfg Config) *Index {
	ix, err := newIndex(t, cfg)
	if err != nil {
		panic(err)
	}
	return ix
}

func newIndex(t core.Transform, cfg Config) (*Index, error) {
	ix := &Index{
		transform: t,
		sp:        cfg.Pager,
		st:        newCorpus(t.InputLen()),
		tree:      rtree.New(t.OutputLen(), rtree.Config{}),
	}
	if ix.sp != nil {
		var err error
		if ix.st.col, err = ix.sp.NewColumn(ix.st.n); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// NewSharded is New under the name and signature the frozen bench/ compiles
// against (bench/sut.go); the one index is the only layout, so n must be 1.
// ROADMAP item 2a deletes it with the benchmark's call.
func NewSharded(structure string, t core.Transform, cfg Config, n int) (*Index, error) {
	if (structure != "" && structure != "rtree") || n != 1 {
		return nil, fmt.Errorf("index: structure %q with %d shards: only one R*-tree index exists", structure, n)
	}
	return newIndex(t, cfg)
}

// Len returns the number of indexed series.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.st.len()
}

// Add inserts a series under the given id. The series must already be in
// normal form (fixed length n, typically mean-subtracted); it is retained.
// Adding an existing id replaces nothing and returns an error.
func (ix *Index) Add(id int64, x ts.Series) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, err := ix.st.add(id, x)
	if err != nil {
		return err
	}
	ix.tree.InsertItem(rtree.Item{ID: id, Slot: slot, Point: ix.transform.Apply(x)})
	if ix.sp != nil && ix.tree.Len() >= ix.deltaThreshold() {
		// Fold the delta into a fresh paged base, here, under the write
		// lock. The add itself succeeded and a failed merge leaves
		// corpus and both trees intact (the delta just stays large and the
		// next add retries), so the error is not the caller's.
		_ = ix.repackLive()
	}
	return nil
}

// MustAdd is Add that panics on error, for bulk loading of trusted data.
func (ix *Index) MustAdd(id int64, x ts.Series) {
	if err := ix.Add(id, x); err != nil {
		panic(err)
	}
}

// Remove deletes the series stored under id. It returns false when the id
// is unknown. The arena slot is tombstoned; when tombstones dominate, corpus
// and trees are repacked without them (repackLive: bulk loaded — better
// clustered than the incrementally grown tree it replaces, and the old
// arena generation becomes garbage).
func (ix *Index) Remove(id int64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.st.remove(id) {
		return false
	}
	// A failed (paged) compaction leaves the tombstones in place; the next
	// removal retries.
	if ix.st.shouldCompact() && ix.repackLive() == nil {
		ix.compactions++
	}
	return true
}

// deltaMergeMin is the smallest delta-tree size that triggers a merge into
// the paged base. Below it a rebuild cannot pay for itself; above it the
// threshold scales with the base (base/4), so merge work stays amortized
// O(log n) per insert.
const deltaMergeMin = 1024

// deltaThreshold is the delta-tree size at which the next Add folds base
// and delta into a fresh paged base.
func (ix *Index) deltaThreshold() int {
	t := deltaMergeMin
	if ix.ptree != nil {
		if b := ix.ptree.Len() / 4; b > t {
			t = b
		}
	}
	return t
}

// Close releases the index's spill files (paged mode; RAM indexes no-op).
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var first error
	if ix.ptree != nil {
		first = ix.ptree.Close(ix.sp)
		ix.ptree = nil
	}
	if err := ix.st.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Get returns the stored series for an id.
func (ix *Index) Get(id int64) (ts.Series, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.st.get(id)
}

// RangeQuery returns all series whose banded DTW distance to q is at most
// epsilon, with the band radius derived from the warping width delta
// (delta = (2k+1)/n). Results are sorted by distance. The query series must
// be in the same normal form as the indexed data; a query of the wrong
// length returns no matches (use RangeQueryCtx for the error).
func (ix *Index) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := ix.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// RangeQueryCtx is RangeQuery with cancellation and work limits. The
// context is checked between candidates: a cancelled query stops promptly
// (without finishing the current DTW computation's candidate loop) and
// returns the matches verified so far together with ctx.Err(). A query of
// the wrong length returns ErrQueryLength. Queries never mutate the index,
// so any number may run concurrently.
func (ix *Index) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	p, err := ix.NewPlan(q, delta)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return ix.RangeQueryPlan(ctx, p, epsilon, lim)
}

// fetchRange appends to dst every live item within eps of box: the RAM
// tree's matches, then the paged base's, with tombstoned items of both
// dropped in place (alive is indexed by slot). dst comes back on error too,
// so a pooled buffer keeps its growth.
func (ix *Index) fetchRange(box rtree.Rect, eps float64, dst []rtree.Item, tstats *rtree.Stats) ([]rtree.Item, error) {
	n := len(dst)
	all := ix.tree.RangeSearchRectInto(box, eps, dst, tstats)
	var err error
	if ix.ptree != nil {
		all, err = ix.ptree.RangeSearchInto(box, eps, all, tstats)
	}
	live := all[:n]
	for _, it := range all[n:] {
		if ix.st.alive[it.Slot] {
			live = append(live, it)
		}
	}
	return live, err
}

// rangePlan is the box search and refinement cascade against a precomputed
// plan, building candidates and matches in pooled scratch. Returned matches
// alias sc.out (unsorted; callers copy before re-pooling).
func (ix *Index) rangePlan(ctx context.Context, p *Plan, epsilon float64, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	box := rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}

	var tstats rtree.Stats
	var stats QueryStats
	var err error
	if sc.ritems, err = ix.fetchRange(box, epsilon, sc.ritems[:0], &tstats); err != nil {
		return nil, stats, err
	}
	stats.Candidates = len(sc.ritems)
	stats.LogicalPages = tstats.NodeAccesses
	if ix.sp != nil {
		// Real I/O: leaf-pin misses here, series-read misses added by
		// verifyRange below.
		stats.PageAccesses = tstats.PageMisses
	} else {
		stats.PageAccesses = stats.LogicalPages
	}

	// The tree's leaf filter applied the exact point-to-box distance test at
	// this epsilon; the cascade starts at LB_Keogh.
	rq := &rangeQuery{lbQuery: p.cascade(true), eps2: epsilon * epsilon}
	sc.slots = sc.slots[:0]
	for _, it := range sc.ritems {
		sc.slots = append(sc.slots, it.Slot)
	}
	out, err := verifyRange(ctx, &ix.st, rq, sc.slots, lim, &stats, sc.out[:0])
	sc.out = out
	return out, stats, err
}

// RangeQueryEuclidean returns all series within Euclidean distance epsilon
// of q, using the very same index structure and feature vectors as the DTW
// queries. This realizes the paper's retrofit claim: "for existing time
// series databases indexed by DFT, DWT, PAA, SVD, etc., we can add Dynamic
// Time Warping support without rebuilding indices ... adding the DTW
// support requires changes only to the time series query" — conversely, a
// DTW index keeps serving classic Euclidean queries. A query of the wrong
// length returns ErrQueryLength.
func (ix *Index) RangeQueryEuclidean(q ts.Series, epsilon float64) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := ix.st.checkQuery(q); err != nil {
		return nil, QueryStats{}, err
	}
	fq := ix.transform.Apply(q)

	var tstats rtree.Stats
	var stats QueryStats
	items, err := ix.fetchRange(rtree.PointRect(fq), epsilon, nil, &tstats)
	if err != nil {
		return nil, stats, err
	}
	stats.Candidates = len(items)
	stats.LogicalPages = tstats.NodeAccesses

	r := ix.st.reader()
	defer r.release()
	var out []Match
	eps2 := epsilon * epsilon
	var rerr error
	for _, it := range items {
		x, err := r.series(int(it.Slot))
		if err != nil {
			rerr = err
			break
		}
		stats.LBSurvivors++
		var sum float64
		exceeded := false
		for i, v := range x {
			d := v - q[i]
			sum += d * d
			if sum > eps2 {
				exceeded = true
				break
			}
		}
		if !exceeded {
			out = append(out, Match{ID: it.ID, Dist: math.Sqrt(sum)})
		}
	}
	if ix.sp != nil {
		stats.PageAccesses = tstats.PageMisses + r.misses()
	} else {
		stats.PageAccesses = stats.LogicalPages
	}
	sortMatches(out)
	return out, stats, rerr
}

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

// knnPlan is the best-first traversal and refinement against a precomputed
// plan, with the top-k heap and sorted result built in pooled scratch: the
// top k groups (Limits.GroupOf; series when nil) sorted by (distance,
// group). Returned matches alias sc.out. In paged mode
// two ascending-distance streams — the in-RAM delta tree's and the paged
// base's — merge into one globally ordered candidate stream (both are the
// one rtree.NNIter, which breaks distance ties items-before-nodes, so the
// merged order matches what a single tree over the union would produce),
// with tombstoned items of either stream skipped as they surface.
func (ix *Index) knnPlan(ctx context.Context, p *Plan, k int, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	box := rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}

	v := getVerifier()
	defer putVerifier(v)

	var tstats rtree.Stats
	var stats QueryStats
	best := sc.topK(k)
	r := ix.st.reader()
	defer r.release()
	s := &knnState{lbQuery: p.cascade(true), v: v, r: &r, best: best, lim: lim, stats: &stats}

	// Both walkers are handed the current cutoff and keep off their frontier
	// what lies beyond it. The cutoff only ever shrinks, so whatever one
	// skips is still beyond the cutoff whenever it could have surfaced — it
	// could only have ended the loop, as the stream's end now does.
	cutoff := s.cutoff()
	ramIt := ix.tree.NNIter(box, &tstats)
	defer ramIt.Close()
	ramNb, ramOK := ix.nextAlive(&ramIt, cutoff)
	var pagedIt rtree.NNIter
	var pagedNb rtree.Neighbor
	var pagedOK bool
	if ix.ptree != nil {
		pagedIt = ix.ptree.NNIter(box, &tstats)
		defer pagedIt.Close()
		pagedNb, pagedOK = ix.nextAlive(&pagedIt, cutoff)
	}
	for (ramOK || pagedOK) && s.err == nil {
		fromRAM := ramOK && (!pagedOK || ramNb.Dist <= pagedNb.Dist)
		nb := pagedNb
		if fromRAM {
			nb = ramNb
		}
		// Termination: the feature-space bound of the next candidate
		// already exceeds the kth best group distance.
		if nb.Dist > cutoff {
			break
		}
		if !s.refine(ctx, nb.ID, nb.Slot) { // checks ctx, once per candidate
			break
		}
		cutoff = s.cutoff()
		if fromRAM {
			ramNb, ramOK = ix.nextAlive(&ramIt, cutoff)
		} else {
			pagedNb, pagedOK = ix.nextAlive(&pagedIt, cutoff)
		}
	}
	if s.err == nil {
		s.err = pagedIt.Err() // nil without a paged base
	}
	stats.FrontierPushes = tstats.FrontierPushes
	stats.LogicalPages = tstats.NodeAccesses
	if ix.sp != nil {
		stats.PageAccesses = tstats.PageMisses + r.misses()
	} else {
		stats.PageAccesses = stats.LogicalPages
	}
	return best.sortedInto(sc), stats, s.err
}

// nextAlive pulls a tree's NN stream — the RAM tree's or the paged base's —
// past tombstoned items.
func (ix *Index) nextAlive(it *rtree.NNIter, bound float64) (rtree.Neighbor, bool) {
	for {
		nb, ok := it.Next(bound)
		if !ok || ix.st.alive[nb.Slot] {
			return nb, ok
		}
	}
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
