package index

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
)

// countingEnvTransform counts ApplyEnvelope calls.
type countingEnvTransform struct {
	core.Transform
	envApplies atomic.Int64
}

func (c *countingEnvTransform) ApplyEnvelope(e dtw.Envelope) core.FeatureEnvelope {
	c.envApplies.Add(1)
	return c.Transform.ApplyEnvelope(e)
}

// TestApplyEnvelopeOncePerLogicalQuery is the plan-sharing acceptance
// test: one logical query runs the envelope transform exactly once, however
// many times a precomputed plan is reused.
func TestApplyEnvelopeOncePerLogicalQuery(t *testing.T) {
	r := rand.New(rand.NewSource(412))
	ctx := context.Background()
	tr := &countingEnvTransform{Transform: core.NewPAA(testN, testDim)}
	ix := New(tr, Config{})
	for i := 0; i < 150; i++ {
		if err := ix.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomWalk(r, testN)

	tr.envApplies.Store(0)
	if _, _, err := ix.RangeQueryCtx(ctx, q, float64(testN)*0.05, 0.1, Limits{}); err != nil {
		t.Fatal(err)
	}
	if got := tr.envApplies.Load(); got != 1 {
		t.Errorf("RangeQueryCtx ran ApplyEnvelope %d times, want 1", got)
	}

	tr.envApplies.Store(0)
	if _, _, err := ix.KNNCtx(ctx, q, 5, 0.1, Limits{}); err != nil {
		t.Fatal(err)
	}
	if got := tr.envApplies.Load(); got != 1 {
		t.Errorf("KNNCtx ran ApplyEnvelope %d times, want 1", got)
	}

	// An explicitly shared plan amortizes across any number of queries.
	tr.envApplies.Store(0)
	p, err := ix.NewPlan(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := ix.RangeQueryPlan(ctx, p, float64(testN)*0.05, Limits{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.KNNPlan(ctx, p, 4+i, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.envApplies.Load(); got != 1 {
		t.Errorf("plan reused 6 times ran ApplyEnvelope %d times, want 1", got)
	}
}
