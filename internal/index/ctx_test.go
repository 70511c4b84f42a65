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

// TestKNNCtxCancellationPrompt demonstrates the acceptance criterion: a
// context-cancelled query returns well within deadline + slack even when
// every candidate verification is artificially slow, while concurrent
// uncancelled queries on the same index complete normally.
func TestKNNCtxCancellationPrompt(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 300)
	q := randomWalk(r, testN)

	// kNN with k=5 performs at least five exact verifications (the first
	// five candidates fill the heap unconditionally), so the 5ms-per-hook
	// sleep forces >= 25ms of verification time: the deadline below fires
	// mid-query no matter how tightly the cascade prunes.
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
	lim := Limits{CandidateHook: func() { time.Sleep(5 * time.Millisecond) }}
	matches, _, err := ix.KNNCtx(ctx, q, 5, 0.1, lim)
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

func TestRangeQueryCtxCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	ix, _ := buildIndex(r, core.NewPAA(testN, testDim), 200)
	q := randomWalk(r, testN)
	// Pick an epsilon that yields plenty of verification work.
	full, _ := ix.RangeQuery(q, 40, 0.1)
	if len(full) == 0 {
		t.Skip("no matches at this epsilon; seed needs adjusting")
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	lim := Limits{CandidateHook: func() {
		if !fired {
			fired = true
			cancel()
		}
	}}
	defer cancel()
	_, _, err := ix.RangeQueryCtx(ctx, q, 40, 0.1, lim)
	if fired && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled after mid-query cancel", err)
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
