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
	cfg := pager.Config{Dir: t.TempDir(), PoolPages: poolPages}
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

// buildPair builds the same corpus twice — once all-in-RAM, once out-of-core
// behind a tiny pool — through identical Add/Remove churn: an initial load,
// a removal wave heavy enough to force compaction, and a re-add wave that in
// paged mode lands in the delta tree on top of a merged base.
func buildPair(t *testing.T, kind BackendKind, shards int, sp *pager.Space) (ram, paged Searcher, queries []ts.Series) {
	t.Helper()
	tr := core.NewPAA(testN, testDim)
	mk := func(cfg Config) Searcher {
		var s Searcher
		var err error
		if shards > 1 {
			s, err = NewSharded(kind, tr, cfg, shards)
		} else {
			s, err = NewBackend(kind, tr, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ram = mk(Config{})
	paged = mk(Config{Pager: sp})

	r := rand.New(rand.NewSource(7))
	const n = 300
	series := make([]ts.Series, n)
	for i := range series {
		series[i] = randomWalk(r, testN)
	}
	for _, s := range []Searcher{ram, paged} {
		for i, x := range series {
			if err := s.Add(int64(i+1), x); err != nil {
				t.Fatal(err)
			}
		}
		// Remove more than half of the first 200 ids: enough tombstones to
		// cross the compaction threshold (in every shard when sharded).
		for i := 0; i < 150; i++ {
			if !s.Remove(int64(i + 1)) {
				t.Fatalf("remove %d: not present", i+1)
			}
		}
		// Re-add under fresh ids; paged mode absorbs these in the delta.
		for i := 0; i < 100; i++ {
			if err := s.Add(int64(1000+i), series[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := paged.Len(), ram.Len(); got != want {
		t.Fatalf("paged Len %d, ram Len %d", got, want)
	}
	queries = make([]ts.Series, 12)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	return ram, paged, queries
}

func sameMatches(t *testing.T, label string, a, b []Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d matches in RAM, %d paged", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: match %d differs: RAM %+v, paged %+v", label, i, a[i], b[i])
		}
	}
}

// TestPagedDifferential proves the acceptance property of the out-of-core
// refactor: a corpus far larger than the buffer pool answers range and kNN
// queries bit-identically to the all-in-RAM configuration, across every
// backend and shard count, with churn (tombstones, compaction, delta
// merges) in the history, and with real pool misses observed.
func TestPagedDifferential(t *testing.T) {
	for _, kind := range []BackendKind{BackendRTree, BackendGrid, BackendScan} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				sp := tinySpace(t)
				ram, paged, queries := buildPair(t, kind, shards, sp)
				defer func() {
					if err := paged.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
					if err := ram.Close(); err != nil {
						t.Errorf("ram close: %v", err)
					}
				}()

				ctx := context.Background()
				radii := []float64{20, 60, 120}
				if kind == BackendGrid {
					// The grid file enumerates O((box/cell)^dim) cells per
					// box search; big radii make that the test's bottleneck
					// without exercising any more paged-storage code.
					radii = []float64{20, 45}
				}
				for qi, q := range queries {
					for _, eps := range radii {
						mr, _, err := ram.RangeQueryCtx(ctx, q, eps, 0.06, Limits{})
						if err != nil {
							t.Fatal(err)
						}
						mp, pstats, err := paged.RangeQueryCtx(ctx, q, eps, 0.06, Limits{})
						if err != nil {
							t.Fatal(err)
						}
						sameMatches(t, fmt.Sprintf("range q%d eps=%g", qi, eps), mr, mp)
						if pstats.Candidates > 0 && pstats.LogicalPages == 0 && kind != BackendScan {
							t.Fatalf("range q%d: no logical pages with %d candidates", qi, pstats.Candidates)
						}
					}
					kr, _, err := ram.KNNCtx(ctx, q, 7, 0.06, Limits{})
					if err != nil {
						t.Fatal(err)
					}
					kp, _, err := paged.KNNCtx(ctx, q, 7, 0.06, Limits{})
					if err != nil {
						t.Fatal(err)
					}
					sameMatches(t, fmt.Sprintf("knn q%d", qi), kr, kp)
				}
				if st := sp.Stats(); st.Misses == 0 {
					t.Fatalf("tiny pool served everything from memory: %+v", st)
				}
			})
		}
	}
}

// TestPagedDifferentialConcurrent runs the same differential under query
// concurrency: many goroutines hammer the paged backend (each query pins
// pages through its own readers) while a RAM twin provides the expected
// answers. Run under -race this is the data-race proof for the pool's
// pin/evict machinery as driven by real query traffic.
func TestPagedDifferentialConcurrent(t *testing.T) {
	sp := tinySpace(t)
	ram, paged, queries := buildPair(t, BackendRTree, 4, sp)
	defer paged.Close()
	defer ram.Close()

	ctx := context.Background()
	type want struct {
		rng []Match
		knn []Match
	}
	wants := make([]want, len(queries))
	for i, q := range queries {
		mr, _, err := ram.RangeQueryCtx(ctx, q, 80, 0.06, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		kr, _, err := ram.KNNCtx(ctx, q, 5, 0.06, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{rng: mr, knn: kr}
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
// items, and a compaction that renumbers every slot — checking Len and query
// results against a RAM twin at each step.
func TestPagedMergeAndCompact(t *testing.T) {
	sp := tinySpace(t)
	tr := core.NewPAA(testN, testDim)
	r := rand.New(rand.NewSource(11))

	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{ID: int64(i + 1), Series: randomWalk(r, testN)}
	}
	paged, err := BulkLoad(tr, Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	ram, err := BulkLoad(tr, Config{}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if paged.ptree == nil {
		t.Fatal("bulk load did not build a paged base")
	}
	if paged.tree.Len() != 0 {
		t.Fatalf("bulk load left %d items in the delta", paged.tree.Len())
	}

	check := func(stage string) {
		t.Helper()
		q := randomWalk(r, testN)
		mr, _ := ram.RangeQuery(q, 100, 0.06)
		mp, pstats := paged.RangeQuery(q, 100, 0.06)
		sameMatches(t, stage+"/range", mr, mp)
		kr, _ := ram.KNN(q, 9, 0.06)
		kp, _ := paged.KNN(q, 9, 0.06)
		sameMatches(t, stage+"/knn", kr, kp)
		if paged.Len() != ram.Len() {
			t.Fatalf("%s: paged Len %d, ram Len %d", stage, paged.Len(), ram.Len())
		}
		if pstats.PageAccesses == 0 && pstats.Candidates > 0 {
			t.Fatalf("%s: candidates with zero page accesses through a tiny pool", stage)
		}
	}
	check("after-bulk")

	// Delta inserts on both, then a forced merge of the paged twin.
	for i := 0; i < 60; i++ {
		x := randomWalk(r, testN)
		if err := paged.Add(int64(500+i), x); err != nil {
			t.Fatal(err)
		}
		if err := ram.Add(int64(500+i), x); err != nil {
			t.Fatal(err)
		}
	}
	if paged.tree.Len() == 0 {
		t.Fatal("delta empty after adds")
	}
	check("with-delta")
	baseBefore := paged.ptree.Len()
	if err := paged.mergePaged(); err != nil {
		t.Fatal(err)
	}
	if paged.tree.Len() != 0 || paged.ptree.Len() != baseBefore+60 {
		t.Fatalf("merge left delta=%d base=%d, want 0/%d", paged.tree.Len(), paged.ptree.Len(), baseBefore+60)
	}
	check("after-merge")

	// Tombstone enough base items to force a renumbering compaction.
	for i := 0; i < 140; i++ {
		if !paged.Remove(int64(i + 1)) {
			t.Fatalf("paged remove %d", i+1)
		}
		if !ram.Remove(int64(i + 1)) {
			t.Fatalf("ram remove %d", i+1)
		}
	}
	if paged.st.compactions == 0 {
		t.Fatal("removal wave never compacted the paged corpus")
	}
	check("after-compaction")
}
