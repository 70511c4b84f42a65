package index

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/ts"
)

// tinySpace opens a pager space with a pathologically small pool — pages
// just big enough for one series record, and only the minimum 8 frames —
// so every query thrashes and paged code paths (evictions, re-reads,
// cursor misses) all exercise.
func tinySpace(t testing.TB) *pager.Space { return pagedSpace(t, 8) }

// pagedSpace opens a page space with a pool of poolPages pages, closed with
// the test.
func pagedSpace(t testing.TB, poolPages int) *pager.Space {
	t.Helper()
	return pagedSpaceIn(t, t.TempDir(), poolPages)
}

// pagedSpaceIn is pagedSpace over a directory the caller can inspect.
func pagedSpaceIn(t testing.TB, dir string, poolPages int) *pager.Space {
	t.Helper()
	cfg := pager.Config{Dir: dir, PoolPages: poolPages}
	cfg.PageSize = cfg.FitPageSize(testN)
	sp, err := pager.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sp.Close(); err != nil {
			t.Errorf("closing space: %v", err)
		}
	})
	return sp
}

// buildChurned builds an Index through Add/Remove churn: an initial load, a removal wave heavy enough to
// force compaction, and a re-add wave that in paged mode lands in the delta
// tree on top of a merged base. It returns the index, the surviving series
// for the oracle, and a fixed set of queries.
func buildChurned(t *testing.T, cfg Config) (s *Index, live map[int64]ts.Series, queries []ts.Series) {
	t.Helper()
	s = New(core.NewPAA(testN, testDim), cfg)

	r := rand.New(rand.NewSource(7))
	const n = 300
	live = make(map[int64]ts.Series)
	series := make([]ts.Series, n)
	for i := range series {
		series[i] = randomWalk(r, testN)
		live[int64(i+1)] = series[i]
		if err := s.Add(int64(i+1), series[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Remove more than half of the first 200 ids: enough tombstones to
	// cross the compaction threshold.
	for i := 0; i < 150; i++ {
		delete(live, int64(i+1))
		if !s.Remove(int64(i + 1)) {
			t.Fatalf("remove %d: not present", i+1)
		}
	}
	// Re-add under fresh ids; paged mode absorbs these in the delta.
	for i := 0; i < 100; i++ {
		live[int64(1000+i)] = series[i]
		if err := s.Add(int64(1000+i), series[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len %d, want %d", s.Len(), len(live))
	}
	queries = make([]ts.Series, 12)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	return s, live, queries
}

// TestPagedDifferential proves the acceptance property of the out-of-core
// refactor: a corpus far larger than the buffer pool answers range and kNN
// queries bit-identically to the brute-force oracle — as the all-in-RAM
// configuration does — with churn (tombstones, compaction, delta merges) in
// the history, and with real pool misses observed. (The one sub-test keeps
// the name it had when the matrix also had a shards=4 cell; the floor file
// knows it by it.)
func TestPagedDifferential(t *testing.T) {
	t.Run("rtree/shards=1", func(t *testing.T) {
		sp := tinySpace(t)
		ram, live, queries := buildChurned(t, Config{})
		paged, _, _ := buildChurned(t, Config{Pager: sp})
		defer func() {
			if err := paged.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := ram.Close(); err != nil {
				t.Errorf("ram close: %v", err)
			}
		}()

		ctx := context.Background()
		for qi, q := range queries {
			all := bruteForce(live, q, 0.06)
			for _, eps := range []float64{20, 60, 120} {
				mr, _, err := ram.RangeQueryCtx(ctx, q, eps, 0.06, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				diffMatches(t, fmt.Sprintf("ram range q%d eps=%g", qi, eps), mr, within(all, eps))
				mp, pstats, err := paged.RangeQueryCtx(ctx, q, eps, 0.06, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				diffMatches(t, fmt.Sprintf("paged range q%d eps=%g", qi, eps), mp, within(all, eps))
				if pstats.Candidates > 0 && pstats.LogicalPages == 0 {
					t.Fatalf("range q%d: no logical pages with %d candidates", qi, pstats.Candidates)
				}
			}
			kr, _, err := ram.KNNCtx(ctx, q, 7, 0.06, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			diffMatches(t, fmt.Sprintf("ram knn q%d", qi), kr, all[:7])
			kp, _, err := paged.KNNCtx(ctx, q, 7, 0.06, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			diffMatches(t, fmt.Sprintf("paged knn q%d", qi), kp, all[:7])
		}
		if st := sp.Stats(); st.Misses == 0 {
			t.Fatalf("tiny pool served everything from memory: %+v", st)
		}
	})
}

// TestPagedDifferentialConcurrent runs the same differential under query
// concurrency: many goroutines hammer the paged index (each query pins
// pages through its own readers) while the oracle provides the expected
// answers. Run under -race this is the data-race proof for the pool's
// pin/evict machinery as driven by real query traffic.
func TestPagedDifferentialConcurrent(t *testing.T) {
	paged, live, queries := buildChurned(t, Config{Pager: tinySpace(t)})
	defer paged.Close()

	ctx := context.Background()
	type want struct {
		rng []Match
		knn []Match
	}
	wants := make([]want, len(queries))
	for i, q := range queries {
		all := bruteForce(live, q, 0.06)
		wants[i] = want{rng: within(all, 80), knn: all[:5]}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (w + rep) % len(queries)
				mp, _, err := paged.RangeQueryCtx(ctx, queries[i], 80, 0.06, Limits{})
				if err != nil {
					errCh <- err
					return
				}
				if len(mp) != len(wants[i].rng) {
					errCh <- fmt.Errorf("worker %d: range q%d: %d matches, want %d", w, i, len(mp), len(wants[i].rng))
					return
				}
				for j := range mp {
					if mp[j] != wants[i].rng[j] {
						errCh <- fmt.Errorf("worker %d: range q%d match %d: %+v != %+v", w, i, j, mp[j], wants[i].rng[j])
						return
					}
				}
				kp, _, err := paged.KNNCtx(ctx, queries[i], 5, 0.06, Limits{})
				if err != nil {
					errCh <- err
					return
				}
				for j := range kp {
					if kp[j] != wants[i].knn[j] {
						errCh <- fmt.Errorf("worker %d: knn q%d match %d: %+v != %+v", w, i, j, kp[j], wants[i].knn[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPagedMergeAndCompact drives the R*-tree base/delta machinery directly:
// a bulk-loaded paged base, delta inserts, a forced merge, tombstoned base
// items, and a compaction that drops them — checking Len, query results
// against the brute-force oracle and the slot layout at each step.
func TestPagedMergeAndCompact(t *testing.T) {
	sp := tinySpace(t)
	tr := core.NewPAA(testN, testDim)
	r := rand.New(rand.NewSource(11))

	entries := make([]Entry, 200)
	live := make(map[int64]ts.Series)
	for i := range entries {
		entries[i] = Entry{ID: int64(i + 1), Series: randomWalk(r, testN)}
		live[entries[i].ID] = entries[i].Series
	}
	paged, err := BulkLoad(tr, Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if paged.ptree == nil {
		t.Fatal("bulk load did not build a paged base")
	}
	if paged.tree.Len() != 0 {
		t.Fatalf("bulk load left %d items in the delta", paged.tree.Len())
	}

	check := func(stage string) {
		t.Helper()
		q := randomWalk(r, testN)
		all := bruteForce(live, q, 0.06)
		mp, pstats := paged.RangeQuery(q, 100, 0.06)
		diffMatches(t, stage+"/range", mp, within(all, 100))
		kp, _ := paged.KNN(q, 9, 0.06)
		diffMatches(t, stage+"/knn", kp, all[:9])
		if paged.Len() != len(live) {
			t.Fatalf("%s: paged Len %d, want %d", stage, paged.Len(), len(live))
		}
		if pstats.PageAccesses == 0 && pstats.Candidates > 0 {
			t.Fatalf("%s: candidates with zero page accesses through a tiny pool", stage)
		}
		checkLeafOrder(t, stage, paged)
	}
	check("after-bulk")

	// Delta inserts, then a forced merge.
	for i := 0; i < 60; i++ {
		x := randomWalk(r, testN)
		live[int64(500+i)] = x
		if err := paged.Add(int64(500+i), x); err != nil {
			t.Fatal(err)
		}
	}
	if paged.tree.Len() == 0 {
		t.Fatal("delta empty after adds")
	}
	check("with-delta")
	baseBefore := paged.ptree.Len()
	if err := paged.repackLive(); err != nil {
		t.Fatal(err)
	}
	if paged.tree.Len() != 0 || paged.ptree.Len() != baseBefore+60 {
		t.Fatalf("merge left delta=%d base=%d, want 0/%d", paged.tree.Len(), paged.ptree.Len(), baseBefore+60)
	}
	check("after-merge")

	// Tombstone enough base items to force a compaction.
	for i := 0; i < 140; i++ {
		delete(live, int64(i+1))
		if !paged.Remove(int64(i + 1)) {
			t.Fatalf("paged remove %d", i+1)
		}
	}
	if paged.compactions == 0 {
		t.Fatal("removal wave never compacted the paged corpus")
	}
	check("after-compaction")
}
