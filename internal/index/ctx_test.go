package index

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"warping/internal/core"
	"warping/internal/ts"
)

// slowCtx is a context whose Err takes wait: the index checks its context
// once per candidate, so every candidate costs at least wait.
type slowCtx struct {
	context.Context
	wait time.Duration
}

func (c slowCtx) Err() error {
	time.Sleep(c.wait)
	return c.Context.Err()
}

// TestKNNCtxCancellationPrompt demonstrates the acceptance criterion: a
// context-cancelled query returns well within deadline + slack even when
// every candidate is artificially slow, while concurrent uncancelled
// queries on the same index complete normally.
func TestKNNCtxCancellationPrompt(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 300)
	q := randomWalk(r, testN)

	// kNN with k=5 refines at least five candidates (the first five fill
	// the heap unconditionally), so the 10ms per context check forces
	// >= 50ms of refinement: the deadline below fires mid-query no matter
	// how tightly the cascade prunes.
	const deadline = 20 * time.Millisecond
	const slack = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var wg sync.WaitGroup
	var otherErr error
	var otherMatches []Match
	wg.Add(1)
	go func() {
		defer wg.Done()
		// An in-flight query with no deadline must be unaffected.
		var e error
		otherMatches, _, e = ix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
		otherErr = e
	}()

	start := time.Now()
	matches, _, err := ix.KNNCtx(slowCtx{ctx, 10 * time.Millisecond}, q, 5, 0.1, Limits{})
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > deadline+slack {
		t.Errorf("cancelled query took %v, want < %v", elapsed, deadline+slack)
	}
	// Partial results are allowed but must never exceed k.
	if len(matches) > 5 {
		t.Errorf("partial result has %d matches, want <= 5", len(matches))
	}

	wg.Wait()
	if otherErr != nil {
		t.Errorf("concurrent query failed: %v", otherErr)
	}
	if len(otherMatches) != 5 {
		t.Errorf("concurrent query returned %d matches, want 5", len(otherMatches))
	}
}

func TestKNNCtxAlreadyCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	matches, _, err := ix.KNNCtx(ctx, randomWalk(r, testN), 3, 0.1, Limits{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if len(matches) != 0 {
		t.Errorf("got %d matches from a pre-cancelled query", len(matches))
	}
}

// countingCtx is a context whose Err turns Canceled on its (n+1)-th call.
type countingCtx struct {
	context.Context
	n, calls int
}

func (c *countingCtx) Err() error {
	if c.calls++; c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestParallelVerificationCancellation: every query checks its context once
// per candidate, before refining it, so a context cancelled at its (n+1)-th
// check stops the range walk, the kNN walk and the scan baseline with
// exactly n candidates refined, and the query returns context.Canceled.
// (The name dates from the shard fan-out that once verified in parallel.)
func TestParallelVerificationCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	ix, data := buildIndex(r, core.NewPAA(testN, testDim), 200)
	scan := NewLinearScan(testN, true)
	for _, e := range data {
		if err := scan.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	q := randomWalk(r, testN)
	const n = 5
	for _, c := range []struct {
		name  string
		query func(ctx context.Context) (QueryStats, error)
	}{
		{"range", func(ctx context.Context) (QueryStats, error) {
			_, st, err := ix.RangeQueryCtx(ctx, q, 40, 0.1, Limits{})
			return st, err
		}},
		{"knn", func(ctx context.Context) (QueryStats, error) {
			_, st, err := ix.KNNCtx(ctx, q, 20, 0.1, Limits{})
			return st, err
		}},
		{"scan-range", func(ctx context.Context) (QueryStats, error) {
			_, st, err := scan.RangeQueryCtx(ctx, q, 40, 0.1, Limits{})
			return st, err
		}},
		{"scan-knn", func(ctx context.Context) (QueryStats, error) {
			_, st, err := scan.KNNCtx(ctx, q, 20, 0.1, Limits{})
			return st, err
		}},
	} {
		full, err := c.query(context.Background())
		if err != nil || full.Candidates <= n {
			t.Fatalf("%s: uncancelled query has %d candidates, err %v; want more than %d", c.name, full.Candidates, err, n)
		}
		st, err := c.query(&countingCtx{Context: context.Background(), n: n})
		if !errors.Is(err, context.Canceled) || st.Candidates != n {
			t.Errorf("%s: err %v after %d candidates, want context.Canceled after %d", c.name, err, st.Candidates, n)
		}
	}
}

// TestRangeQueryCtxCancellation: a range query cancelled halfway through
// its candidates returns context.Canceled with the matches verified so far,
// each of them a match of the uncancelled query at the same distance.
func TestRangeQueryCtxCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	q := randomWalk(r, testN)
	full, fullStats, err := ix.RangeQueryCtx(context.Background(), q, 40, 0.1, Limits{})
	if err != nil || len(full) == 0 || fullStats.Candidates < 2 {
		t.Fatalf("uncancelled query: %d matches, %d candidates, err %v", len(full), fullStats.Candidates, err)
	}
	want := make(map[int64]float64, len(full))
	for _, m := range full {
		want[m.ID] = m.Dist
	}
	half := fullStats.Candidates / 2
	part, st, err := ix.RangeQueryCtx(&countingCtx{Context: context.Background(), n: half}, q, 40, 0.1, Limits{})
	if !errors.Is(err, context.Canceled) || st.Candidates != half {
		t.Fatalf("err %v after %d candidates, want context.Canceled after %d", err, st.Candidates, half)
	}
	if len(part) > len(full) {
		t.Errorf("cancelled query has %d matches, uncancelled %d", len(part), len(full))
	}
	for _, m := range part {
		if d, ok := want[m.ID]; !ok || d != m.Dist {
			t.Errorf("partial match %d at %v is not a full match (%v, %v)", m.ID, m.Dist, d, ok)
		}
	}
}

func TestKNNCtxBudgetDegrades(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	q := randomWalk(r, testN)

	// Unlimited: exact, not degraded.
	_, stats, err := ix.KNNCtx(context.Background(), q, 10, 0.1, Limits{})
	if err != nil || stats.Degraded {
		t.Fatalf("unlimited query: err=%v degraded=%v", err, stats.Degraded)
	}
	if stats.ExactDTW < 2 {
		t.Skip("query too cheap to exercise the budget")
	}

	// Budget of 1: must stop early and flag degradation, not error.
	matches, stats2, err := ix.KNNCtx(context.Background(), q, 10, 0.1, Limits{MaxExactDTW: 1})
	if err != nil {
		t.Fatalf("budgeted query errored: %v", err)
	}
	if !stats2.Degraded {
		t.Error("budgeted query not marked degraded")
	}
	if stats2.ExactDTW > 1 {
		t.Errorf("budget 1 but %d exact DTW computations", stats2.ExactDTW)
	}
	if len(matches) > 10 {
		t.Errorf("%d matches exceed k", len(matches))
	}
}

func TestRangeQueryCtxBudgetDegrades(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	q := randomWalk(r, testN)
	_, stats, err := ix.RangeQueryCtx(context.Background(), q, 40, 0.1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExactDTW < 2 {
		t.Skip("query too cheap to exercise the budget")
	}
	_, stats2, err := ix.RangeQueryCtx(context.Background(), q, 40, 0.1, Limits{MaxExactDTW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Degraded || stats2.ExactDTW > 1 {
		t.Errorf("degraded=%v exactDTW=%d, want degraded with <= 1", stats2.Degraded, stats2.ExactDTW)
	}
}

// TestConcurrentQueriesRace exercises read-purity: many goroutines query
// the same index simultaneously (run under -race).
func TestConcurrentQueriesRace(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 300)
	qlist := make([]ts.Series, 8)
	for i := range qlist {
		qlist[i] = randomWalk(r, testN)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := qlist[i%len(qlist)]
			if i%2 == 0 {
				ix.KNN(q, 5, 0.1)
			} else {
				ix.RangeQuery(q, 30, 0.1)
			}
		}(i)
	}
	wg.Wait()
}
