// Sharded: a hash-partitioned composite of R*-tree indexes for stall-free
// writes and parallel query fan-out. Ids are hashed across N per-shard
// indexes, each guarded by its own RWMutex, so a write locks 1/N of the
// corpus while queries proceed on every other shard, and a query's tree
// descent and refinement run on N cores instead of one.
//
// Exactness is preserved shard by shard: range queries are simply the
// concatenation of per-shard range results (every shard applies the full
// no-false-negative cascade to its partition), and kNN merges per-shard
// top-k sets under a shared atomic distance bound — the global kth-best
// (group) distance is never larger than any shard-local kth-best, so a
// candidate pruned against the shared bound could not have entered the
// merged top-k.
package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"warping/internal/core"
	"warping/internal/ts"
)

// shard is one partition: an index plus its lock. Queries take the read
// lock, Add/Remove the write lock, so a blocked writer stalls only its own
// partition.
type shard struct {
	mu sync.RWMutex
	ix *Index
}

// Sharded partitions a corpus across N indexes by id hash. Unlike a bare
// Index it is internally synchronized: Add/Remove/queries may all be called
// concurrently.
type Sharded struct {
	shards []*shard

	// AddHook, when non-nil, runs inside the shard's write lock during
	// Add, after the insert. It exists for tests that must hold one
	// shard's writer mid-flight (proving writes no longer stall unrelated
	// reads); set it before any concurrent use.
	AddHook func(shardIdx int)
}

// NewSharded creates n empty shards. n < 1 is an error; n == 1 still works
// (one shard, useful for differential testing) but buys no parallelism.
// structure must be "" or "rtree": the parameter selects nothing and exists
// only because the frozen benchmark calls NewSharded("", …).
func NewSharded(structure string, t core.Transform, cfg Config, n int) (*Sharded, error) {
	if structure != "" && structure != "rtree" {
		return nil, fmt.Errorf("index: unknown index structure %q", structure)
	}
	if n < 1 {
		return nil, fmt.Errorf("index: shard count %d < 1", n)
	}
	sh := &Sharded{shards: make([]*shard, 0, n)}
	for len(sh.shards) < n {
		ix, err := newIndex(t, cfg)
		if err != nil {
			_ = sh.Close()
			return nil, err
		}
		sh.shards = append(sh.shards, &shard{ix: ix})
	}
	return sh, nil
}

// shardOf hashes an id to its shard: a multiplicative (Fibonacci) hash so
// sequential ids — the common case for phrase ids — spread evenly instead
// of striding one shard.
func (sh *Sharded) shardOf(id int64) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 32) % uint64(len(sh.shards)))
}

// corpus returns the first shard's corpus: all shards share one transform
// configuration, which is what plans are built and checked against.
func (sh *Sharded) corpus() *corpus { return &sh.shards[0].ix.st }

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// ShardLens returns the number of series in each shard (for stats
// surfaces and balance monitoring).
func (sh *Sharded) ShardLens() []int {
	out := make([]int, len(sh.shards))
	for i, s := range sh.shards {
		s.mu.RLock()
		out[i] = s.ix.Len()
		s.mu.RUnlock()
	}
	return out
}

// Add inserts a series, locking only the owning shard: writers on other
// shards and queries that can proceed without this shard are unaffected.
func (sh *Sharded) Add(id int64, x ts.Series) error {
	i := sh.shardOf(id)
	s := sh.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.ix.Add(id, x)
	if err == nil && sh.AddHook != nil {
		sh.AddHook(i)
	}
	return err
}

// Remove deletes the series stored under id, locking only the owning
// shard.
func (sh *Sharded) Remove(id int64) bool {
	s := sh.shards[sh.shardOf(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Remove(id)
}

// Len returns the total number of indexed series.
func (sh *Sharded) Len() int {
	n := 0
	for _, s := range sh.shards {
		s.mu.RLock()
		n += s.ix.Len()
		s.mu.RUnlock()
	}
	return n
}

// SeriesLen returns the required series length n.
func (sh *Sharded) SeriesLen() int { return sh.shards[0].ix.SeriesLen() }

// Get returns the stored series for an id.
func (sh *Sharded) Get(id int64) (ts.Series, bool) {
	s := sh.shards[sh.shardOf(id)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Get(id)
}

// Visit calls fn for every stored (id, series) pair, shard by shard. fn
// runs under the shard's read lock and must not call back into sh.
func (sh *Sharded) Visit(fn func(id int64, x ts.Series)) {
	for _, s := range sh.shards {
		s.mu.RLock()
		s.ix.Visit(fn)
		s.mu.RUnlock()
	}
}

// Close closes every shard, releasing spill files in paged mode. First
// error wins; every shard is closed regardless.
func (sh *Sharded) Close() error {
	var first error
	for _, s := range sh.shards {
		s.mu.Lock()
		if err := s.ix.Close(); err != nil && first == nil {
			first = err
		}
		s.mu.Unlock()
	}
	return first
}

// shardResult is one shard's contribution to a fanned-out query. It
// carries the shard goroutine's pooled scratch alongside the matches
// (which alias sc.out): the merger copies the matches out and only then
// re-pools the scratch. Scratches of shards abandoned by a cancelled
// merge are never re-pooled — they drain into the buffered channel and
// fall to the garbage collector, which is the safe direction (a pooled
// buffer must never be handed out while an abandoned goroutine could
// still be writing to it).
type shardResult struct {
	matches []Match
	stats   QueryStats
	err     error
	sc      *scratch
}

// fanOut runs query against every shard in parallel (each with its own
// pooled scratch, under its shard's read lock) and merges completed
// results into dst in completion order. On cancellation the merge stops
// waiting — a shard stuck behind a blocked writer cannot stall the whole
// query — and returns the matches collected from the shards that did
// complete, together with ctx.Err() (the same partial-result contract as
// the single-shard Ctx methods).
func (sh *Sharded) fanOut(ctx context.Context, dst []Match, query func(ix *Index, sc *scratch) ([]Match, QueryStats, error)) ([]Match, QueryStats, error) {
	ch := make(chan shardResult, len(sh.shards))
	for _, s := range sh.shards {
		go func(s *shard) {
			sc := getScratch()
			s.mu.RLock()
			m, st, err := query(s.ix, sc)
			s.mu.RUnlock()
			ch <- shardResult{matches: m, stats: st, err: err, sc: sc}
		}(s)
	}
	out := dst
	var stats QueryStats
	var firstErr error
	for done := 0; done < len(sh.shards); done++ {
		select {
		case r := <-ch:
			out = append(out, r.matches...)
			putScratch(r.sc)
			stats.Add(r.stats)
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		case <-ctx.Done():
			return out, stats, ctx.Err()
		}
	}
	return out, stats, firstErr
}

// rangePlan is Index.rangePlan for the composite: per-shard rangePlan
// calls fan out in parallel against the one shared Plan and concatenate
// into sc.out. Every shard applies the full refinement cascade to its
// partition, so the union is exactly the unsharded result set; the shared
// exact-DTW budget (lim.MaxExactDTW) applies to the whole query, claimed
// atomically across shards.
func (sh *Sharded) rangePlan(ctx context.Context, p *Plan, epsilon float64, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	if len(sh.shards) == 1 {
		s := sh.shards[0]
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.ix.rangePlan(ctx, p, epsilon, lim, sc)
	}
	if lim.shared == nil {
		lim.shared = newSharedQuery(lim.MaxExactDTW)
	}
	out, stats, err := sh.fanOut(ctx, sc.out[:0], func(ix *Index, ssc *scratch) ([]Match, QueryStats, error) {
		return ix.rangePlan(ctx, p, epsilon, lim, ssc)
	})
	sc.out = out
	return out, stats, err
}

// knnPlan is Index.knnPlan for the composite: per-shard kNN against the
// one shared Plan under a shared atomic best-k distance bound (see KNNCtx).
// Each shard returns its k best distinct groups; the merge folds them
// through the same topK, so a group whose members are spread over several
// shards comes out once, by its closest member, and the result in sc.out is
// the k best groups overall.
func (sh *Sharded) knnPlan(ctx context.Context, p *Plan, k int, lim Limits, sc *scratch) ([]Match, QueryStats, error) {
	if len(sh.shards) == 1 {
		s := sh.shards[0]
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.ix.knnPlan(ctx, p, k, lim, sc)
	}
	if lim.shared == nil {
		lim.shared = newSharedQuery(lim.MaxExactDTW)
	}
	out, stats, err := sh.fanOut(ctx, sc.out[:0], func(ix *Index, ssc *scratch) ([]Match, QueryStats, error) {
		return ix.knnPlan(ctx, p, k, lim, ssc)
	})
	best := sc.topK(k)
	for _, m := range out {
		if g, ok := lim.groupOf(m.ID); ok {
			best.offer(m.ID, g, m.Dist)
		}
	}
	return best.sortedInto(sc), stats, err
}

// RangeQueryCtx is Index.RangeQueryCtx over every shard: the query plan (envelope, feature
// box, band) is computed exactly once here and shared by every shard's
// fanned-out sub-query; see rangePlan for the exactness argument.
func (sh *Sharded) RangeQueryCtx(ctx context.Context, q ts.Series, epsilon, delta float64, lim Limits) ([]Match, QueryStats, error) {
	p, err := sh.NewPlan(q, delta)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return sh.RangeQueryPlan(ctx, p, epsilon, lim)
}

// RangeQuery is RangeQueryCtx without cancellation or limits.
func (sh *Sharded) RangeQuery(q ts.Series, epsilon, delta float64) ([]Match, QueryStats) {
	out, stats, _ := sh.RangeQueryCtx(context.Background(), q, epsilon, delta, Limits{})
	return out, stats
}

// KNNCtx is Index.KNNCtx over every shard: per-shard kNN under a shared atomic best-k
// distance bound, against one shared query plan. Each shard publishes its
// kth-best exact (group) distance as it improves; every other shard prunes
// candidates (and terminates its traversal) against the minimum published
// bound. No false negatives: the global kth-best distance is at most any
// shard-local kth-best, so any candidate whose lower bound exceeds the
// shared bound is outside the merged top-k. The merged result is the k
// closest of the per-shard results.
func (sh *Sharded) KNNCtx(ctx context.Context, q ts.Series, k int, delta float64, lim Limits) ([]Match, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	p, err := sh.NewPlan(q, delta)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return sh.KNNPlan(ctx, p, k, lim)
}

// KNN is KNNCtx without cancellation or limits.
func (sh *Sharded) KNN(q ts.Series, k int, delta float64) ([]Match, QueryStats) {
	out, stats, _ := sh.KNNCtx(context.Background(), q, k, delta, Limits{})
	return out, stats
}

// BulkAdd fills a fresh index (nothing ever added to any shard; anything
// else is an error): entries are partitioned by shard and every partition is
// STR bulk-loaded (Index.bulkLoad) in parallel, bounded by GOMAXPROCS. This
// is the one build path of a served corpus — first build, snapshot load and
// WAL recovery alike. Each shard is locked only while its own partition
// loads. After an error the index is unusable and must be Closed.
func (sh *Sharded) BulkAdd(entries []Entry) error {
	parts := make([][]Entry, len(sh.shards))
	for _, e := range entries {
		i := sh.shardOf(e.ID)
		parts[i] = append(parts[i], e)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part []Entry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := sh.shards[i]
			s.mu.Lock()
			defer s.mu.Unlock()
			errs[i] = s.ix.bulkLoad(part)
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
