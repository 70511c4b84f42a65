package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/store"
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
	return pagedSpaceIn(t, t.TempDir(), poolPages, nil)
}

// pagedSpaceIn is pagedSpace over a directory the caller can inspect, and
// over fsys (nil: the real one).
func pagedSpaceIn(t testing.TB, dir string, poolPages int, fsys store.FS) *pager.Space {
	t.Helper()
	cfg := pager.Config{Dir: dir, PoolPages: poolPages, FS: fsys}
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
// while the oracle provides the expected answers, over a merged base with
// adds in the delta on top of it. Run under -race this is the data-race
// proof for the pool's pin/evict machinery as driven by real query traffic.
func TestPagedDifferentialConcurrent(t *testing.T) {
	paged := New(core.NewPAA(testN, testDim), Config{Pager: tinySpace(t)})
	defer paged.Close()
	r := rand.New(rand.NewSource(7))
	live := make([]Entry, 340)
	for i := range live {
		live[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
		if i == 240 {
			if err := paged.repackLive(); err != nil {
				t.Fatal(err)
			}
		}
		if err := paged.Add(live[i].ID, live[i].Series); err != nil {
			t.Fatal(err)
		}
	}
	if paged.base.Len() == 0 || paged.delta.Len() == 0 {
		t.Fatalf("base %d, delta %d: the test needs both non-empty", paged.base.Len(), paged.delta.Len())
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

// TestPagedDeltaLivesInRAM: page files are written once, by a repack. An Add
// to a paged index writes no page and pins none: the delta's series go to
// the corpus's RAM arena tail, and are served from there exactly; the next merge writes them out with everything else, and empties
// the tail.
func TestPagedDeltaLivesInRAM(t *testing.T) {
	fsys := store.NewFaultFS(store.OS())
	cfg := pager.Config{Dir: t.TempDir(), PoolPages: 16, FS: fsys}
	cfg.PageSize = cfg.FitPageSize(testN)
	sp, err := pager.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := rand.New(rand.NewSource(1507))
	var entries []Entry
	for i := 0; i < 300; i++ {
		entries = append(entries, Entry{ID: int64(i), Series: randomWalk(r, testN)})
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	written, pool := fsys.BytesWritten(), sp.Stats()
	for i := 0; i < 50; i++ {
		e := Entry{ID: int64(1000 + i), Series: randomWalk(r, testN)}
		entries = append(entries, e)
		if err := ix.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	if got, st := fsys.BytesWritten(), sp.Stats(); got != written || pins(st) != pins(pool) {
		t.Fatalf("50 adds wrote %d bytes and pinned %d pages, want none", got-written, pins(st)-pins(pool))
	}
	if ix.st.base != 300 || len(ix.st.xs) != 50*testN {
		t.Fatalf("%d slots in the columns and %d series in the arena, want 300 and 50", ix.st.base, len(ix.st.xs)/testN)
	}

	check := func(when string) {
		for trial := 0; trial < 4; trial++ {
			q := entries[len(entries)-1-7*trial].Series
			got, _, err := ix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
			if want := BruteForce(entries, q, 0.1, 5, nil); err != nil || !sameMatches(got, want) {
				t.Fatalf("%s: kNN %v, err %v; the oracle %v", when, got, err, want)
			}
		}
	}
	check("with a delta")
	ix.mu.Lock()
	err = ix.repackLive()
	ix.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if ix.st.base != 350 || len(ix.st.xs) != 0 || fsys.BytesWritten() == written {
		t.Fatalf("after the merge %d slots in the columns and %d series in the arena", ix.st.base, len(ix.st.xs)/testN)
	}
	check("after the merge")
}

// TestFailedMergeBacksOff: while the page files cannot be written, a delta
// merge fails and leaves the index intact, and the next attempt waits until
// the delta has grown by another deltaThreshold() — N adds after a failure
// make at most ⌈N / deltaThreshold()⌉ + 1 attempts, not one per add. The
// merges and failures are counted with the last error's text, and kNN and
// range answers equal the oracle's before the failure, during it, and
// after writes succeed again.
func TestFailedMergeBacksOff(t *testing.T) {
	fsys := store.NewFaultFS(store.OS())
	cfg := pager.Config{Dir: t.TempDir(), PoolPages: 16, FS: fsys}
	cfg.PageSize = cfg.FitPageSize(testN)
	sp, err := pager.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := rand.New(rand.NewSource(2601))
	var entries []Entry
	for i := 0; i < 300; i++ {
		entries = append(entries, Entry{ID: int64(i), Series: randomWalk(r, testN)})
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	add := func(n int) {
		for range n {
			e := Entry{ID: int64(len(entries)), Series: randomWalk(r, testN)}
			entries = append(entries, e)
			if err := ix.Add(e.ID, e.Series); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, want MergeStats) {
		t.Helper()
		if got := ix.MergeStats(); got.Merges != want.Merges || got.MergeFailures != want.MergeFailures ||
			!strings.Contains(got.LastError, want.LastError) {
			t.Fatalf("%s: merge stats %+v, want %+v", when, got, want)
		}
		for trial := range 3 {
			q := entries[len(entries)-1-11*trial].Series
			got, _, err := ix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
			if want := BruteForce(entries, q, 0.1, 5, nil); err != nil || !sameMatches(got, want) {
				t.Fatalf("%s: kNN %v, err %v; the oracle %v", when, got, err, want)
			}
			eps := 12.0
			got, _ = ix.RangeQuery(q, eps, 0.1)
			if want := within(BruteForce(entries, q, 0.1, len(entries), nil), eps); !sameMatches(got, want) {
				t.Fatalf("%s: range query %v; the oracle %v", when, got, want)
			}
		}
	}
	threshold := ix.deltaThreshold()
	check("before the failure", MergeStats{})

	full := errors.New("disk full")
	fsys.FailWrites(full)
	add(threshold)
	check("after the first failed merge", MergeStats{MergeFailures: 1, LastError: full.Error()})
	const n = 2500
	add(n)
	failures := ix.MergeStats().MergeFailures - 1
	if limit := int64((n+threshold-1)/threshold + 1); failures > limit {
		t.Fatalf("%d adds after a failed merge made %d attempts, want at most %d", n, failures, limit)
	}
	check("while writes fail", MergeStats{MergeFailures: failures + 1, LastError: full.Error()})

	fsys.FailWrites(nil)
	for ix.MergeStats().Merges == 0 {
		add(1)
	}
	check("after writes succeed again", MergeStats{Merges: 1, MergeFailures: failures + 1, LastError: full.Error()})
	if ix.delta.Len() != 0 {
		t.Fatalf("%d items in the delta after the merge", ix.delta.Len())
	}
}
