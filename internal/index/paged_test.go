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

// TestPagedDifferentialConcurrent: many goroutines query one paged index
// behind tinySpace's pool (each query pins pages through its own readers)
// while the oracle provides the expected answers, after churn — tombstones, a
// compaction, re-adds in the delta on top of the merged base. Run under -race
// this is the data-race proof for the pool's pin/evict machinery as driven by
// real query traffic.
func TestPagedDifferentialConcurrent(t *testing.T) {
	paged := New(core.NewPAA(testN, testDim), Config{Pager: tinySpace(t)})
	defer paged.Close()
	r := rand.New(rand.NewSource(7))
	series := make([]ts.Series, 300)
	for i := range series {
		series[i] = randomWalk(r, testN)
		if err := paged.Add(int64(i), series[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 160 {
		if !paged.Remove(int64(i)) {
			t.Fatalf("remove %d: not present", i)
		}
	}
	live := make([]Entry, 0, 240)
	for i := 160; i < len(series); i++ {
		live = append(live, Entry{ID: int64(i), Series: series[i]})
	}
	for i := range 100 {
		live = append(live, Entry{ID: int64(1000 + i), Series: series[i]})
		if err := paged.Add(int64(1000+i), series[i]); err != nil {
			t.Fatal(err)
		}
	}
	if paged.compactions == 0 || paged.tree.Len() == 0 {
		t.Fatalf("%d compactions, %d delta items: the churn missed what the test is about", paged.compactions, paged.tree.Len())
	}

	ctx := context.Background()
	type want struct {
		q        ts.Series
		rng, knn []Match
	}
	wants := make([]want, 12)
	for i := range wants {
		q := randomWalk(r, testN)
		all := BruteForce(live, q, 0.06, len(live), nil)
		wants[i] = want{q: q, rng: within(all, 80), knn: all[:5]}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (w + rep) % len(wants)
				mp, _, err := paged.RangeQueryCtx(ctx, wants[i].q, 80, 0.06, Limits{})
				if err == nil && !sameMatches(mp, wants[i].rng) {
					err = fmt.Errorf("worker %d: range q%d:\n got %v\nwant %v", w, i, mp, wants[i].rng)
				}
				if err != nil {
					errCh <- err
					return
				}
				kp, _, err := paged.KNNCtx(ctx, wants[i].q, 5, 0.06, Limits{})
				if err == nil && !sameMatches(kp, wants[i].knn) {
					err = fmt.Errorf("worker %d: knn q%d:\n got %v\nwant %v", w, i, kp, wants[i].knn)
				}
				if err != nil {
					errCh <- err
					return
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
