package index

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"warping/internal/core"
	"warping/internal/ts"
)

// benchCorpus builds a sharded R*-tree index over `count` random walks and
// returns it with a handful of query series drawn from the same
// distribution.
func benchCorpus(b *testing.B, shards, count int) (*Sharded, []ts.Series) {
	b.Helper()
	r := rand.New(rand.NewSource(int64(1000 + shards)))
	entries := make([]Entry, count)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	sh, err := NewSharded("", core.NewPAA(testN, testDim), Config{}, shards)
	if err != nil {
		b.Fatal(err)
	}
	if err := sh.BulkAdd(entries); err != nil {
		b.Fatal(err)
	}
	queries := make([]ts.Series, 8)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	return sh, queries
}

var benchShardCounts = []int{1, 2, 4, 8}

func shardName(n int) string {
	return "shards=" + string(rune('0'+n))
}

// BenchmarkShardedRange sweeps shard counts for a single-caller range
// query: the fan-out searches shards in parallel, so latency should drop
// as shards are added (until per-shard work no longer dominates the
// goroutine handoff).
func BenchmarkShardedRange(b *testing.B) {
	for _, n := range benchShardCounts {
		b.Run(shardName(n), func(b *testing.B) {
			sh, queries := benchCorpus(b, n, 4000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.RangeQuery(queries[i%len(queries)], 40, 0.1)
			}
		})
	}
}

// BenchmarkShardedKNN sweeps shard counts for k-nearest-neighbour
// search. Shards share one atomic best-k bound, so a tight radius found
// on one shard prunes the others mid-flight.
func BenchmarkShardedKNN(b *testing.B) {
	for _, n := range benchShardCounts {
		b.Run(shardName(n), func(b *testing.B) {
			sh, queries := benchCorpus(b, n, 4000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.KNN(queries[i%len(queries)], 5, 0.1)
			}
		})
	}
}

// BenchmarkShardedAddUnderQueryLoad measures write latency while query
// goroutines hammer the index — the scenario the sharding exists for.
// With one shard every Add waits for the exclusive lock behind in-flight
// readers; with many shards an Add locks only 1/n of the index, so the
// sweep should show Add ns/op falling as shards are added.
func BenchmarkShardedAddUnderQueryLoad(b *testing.B) {
	for _, n := range benchShardCounts {
		b.Run(shardName(n), func(b *testing.B) {
			sh, queries := benchCorpus(b, n, 4000)
			r := rand.New(rand.NewSource(int64(2000 + n)))
			// Pre-generate the series to insert so the walk generation
			// isn't on the measured path.
			toAdd := make([]ts.Series, b.N)
			for i := range toAdd {
				toAdd[i] = randomWalk(r, testN)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var queriesRun atomic.Int64
			started := make(chan struct{}, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sh.RangeQuery(queries[(g+i)%len(queries)], 40, 0.1)
						if i == 0 {
							started <- struct{}{}
						}
						queriesRun.Add(1)
					}
				}(g)
			}
			// Wait until every load goroutine has a query in flight before
			// the timer starts: otherwise the N=1 calibration run measures
			// an uncontended Add, and the benchmark framework extrapolates
			// an absurdly large iteration count for the contended runs.
			for g := 0; g < 4; g++ {
				<-started
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sh.Add(int64(1_000_000+i), toAdd[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(queriesRun.Load())/float64(b.N), "queries/add")
		})
	}
}
