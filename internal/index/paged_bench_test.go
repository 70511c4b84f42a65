package index

import (
	"fmt"
	"math/rand"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/ts"
)

// pagedBenchPools sweeps the buffer pool from pathologically small (every
// query thrashes) to comfortably larger than the hot set. 0 is the
// all-in-RAM baseline.
var pagedBenchPools = []int{0, 16, 64, 256, 1024}

func poolName(n int) string {
	if n == 0 {
		return "ram"
	}
	return fmt.Sprintf("pool=%d", n)
}

// pagedBenchCorpus bulk-loads `count` random walks into an R*-tree index,
// out-of-core behind a pool of `pool` pages (or all-in-RAM for pool 0),
// and returns query series drawn from the same distribution.
func pagedBenchCorpus(b *testing.B, pool, count int) (*Index, *pager.Space, []ts.Series) {
	b.Helper()
	cfg := Config{}
	var sp *pager.Space
	if pool > 0 {
		pcfg := pager.Config{Dir: b.TempDir(), PoolPages: pool}
		pcfg.PageSize = pcfg.FitPageSize(testN)
		var err error
		if sp, err = pager.Open(pcfg); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := sp.Close(); err != nil {
				b.Errorf("closing space: %v", err)
			}
		})
		cfg.Pager = sp
	}
	r := rand.New(rand.NewSource(int64(4000 + pool)))
	entries := make([]Entry, count)
	for i := range entries {
		entries[i] = Entry{ID: int64(i + 1), Series: randomWalk(r, testN)}
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	queries := make([]ts.Series, 8)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	return ix, sp, queries
}

func reportPool(b *testing.B, sp *pager.Space, before pager.Stats) {
	if sp == nil {
		return
	}
	after := sp.Stats()
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	if hits+misses > 0 {
		b.ReportMetric(100*hits/(hits+misses), "hit%")
	}
	b.ReportMetric(misses/float64(b.N), "misses/op")
}

// BenchmarkPagedRangeWarm measures steady-state range-query latency as the
// pool shrinks: once the hot pages (upper tree levels, frequently re-read
// leaves) fit, the paged index should track the RAM baseline, and the hit%
// metric shows where that knee is.
func BenchmarkPagedRangeWarm(b *testing.B) {
	for _, pool := range pagedBenchPools {
		b.Run(poolName(pool), func(b *testing.B) {
			ix, sp, queries := pagedBenchCorpus(b, pool, 4000)
			// Warm the pool with one pass over the query set.
			for _, q := range queries {
				ix.RangeQuery(q, 40, 0.1)
			}
			var before pager.Stats
			if sp != nil {
				before = sp.Stats()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.RangeQuery(queries[i%len(queries)], 40, 0.1)
			}
			b.StopTimer()
			reportPool(b, sp, before)
		})
	}
}

// BenchmarkPagedRangeCold resets the pool before every query, so each
// iteration pays the full fault-in cost from page files: the worst case a
// freshly started (or badly undersized) server sees. The RAM baseline has
// nothing to fault and bounds the achievable latency.
func BenchmarkPagedRangeCold(b *testing.B) {
	for _, pool := range pagedBenchPools {
		b.Run(poolName(pool), func(b *testing.B) {
			ix, sp, queries := pagedBenchCorpus(b, pool, 4000)
			// Reset zeroes the pool counters along with the frames, so
			// per-iteration totals are accumulated rather than diffed
			// against a pre-loop snapshot.
			var hits, misses uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sp != nil {
					b.StopTimer()
					if err := sp.Pool().Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				ix.RangeQuery(queries[i%len(queries)], 40, 0.1)
				if sp != nil {
					b.StopTimer()
					st := sp.Stats()
					hits += st.Hits
					misses += st.Misses
					b.StartTimer()
				}
			}
			b.StopTimer()
			if sp != nil {
				if h, m := float64(hits), float64(misses); h+m > 0 {
					b.ReportMetric(100*h/(h+m), "hit%")
				}
				b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
			}
		})
	}
}

// BenchmarkPagedKNNWarm is the kNN twin of the warm range sweep: the
// shrinking best-k radius makes page demand data-dependent, so hit rates
// degrade differently than for fixed-radius search.
func BenchmarkPagedKNNWarm(b *testing.B) {
	for _, pool := range pagedBenchPools {
		b.Run(poolName(pool), func(b *testing.B) {
			ix, sp, queries := pagedBenchCorpus(b, pool, 4000)
			for _, q := range queries {
				ix.KNN(q, 5, 0.1)
			}
			var before pager.Stats
			if sp != nil {
				before = sp.Stats()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.KNN(queries[i%len(queries)], 5, 0.1)
			}
			b.StopTimer()
			reportPool(b, sp, before)
		})
	}
}

// BenchmarkMerge times what one delta merge stalls queries for: it runs
// inside Add, under the index's write lock, in both modes. A 9 200-series
// base (the shape of the end-to-end benchmark's corpus; out of core behind a
// 256-page pool) with deltaMergeMin series in the delta is repacked — tree,
// series column and slots — into a fresh base; building it is not timed.
// ns/op over deltaMergeMin is the merge's amortised cost per insert at its
// smallest trigger.
func BenchmarkMerge(b *testing.B) {
	r := rand.New(rand.NewSource(4256))
	entries := make([]Entry, 9200+deltaMergeMin)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	for _, mode := range []string{"ram", "paged"} {
		b.Run(mode, func(b *testing.B) {
			var cfg Config
			if mode == "paged" {
				cfg.Pager = pagedSpace(b, 256)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries[:9200])
				if err != nil {
					b.Fatal(err)
				}
				// Below Add's own trigger for a base this size (base/4), so
				// the one merge is the timed one.
				for _, e := range entries[9200:] {
					if err := ix.Add(e.ID, e.Series); err != nil {
						b.Fatal(err)
					}
				}
				if ix.delta.Len() != deltaMergeMin {
					b.Fatalf("delta holds %d series, want %d", ix.delta.Len(), deltaMergeMin)
				}
				b.StartTimer()
				if err := ix.repackLive(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if ix.delta.Len() != 0 || ix.base.Len() != len(entries) {
					b.Fatalf("merge left delta=%d base=%d", ix.delta.Len(), ix.base.Len())
				}
				if err := ix.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
