package index

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/ts"
)

// TestChurnCompactionBackendsAgree drives the Index on both storage backends
// (RAM, 16-page pool) through the same heavy interleaved Add/Remove script —
// waves of inserts followed by removal bursts sized to push tombstones past
// the arena's compaction threshold — and checks after every wave that both
// return the brute-force oracle's range and kNN results over the survivors,
// that removed ids are gone and survivors read back with the right values,
// and (white-box) that the churn really did force at least one compaction
// on each.
func TestChurnCompactionBackendsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(411))
	tr := core.NewPAA(testN, testDim)

	type cell struct {
		name string
		ix   *Index
	}
	cells := []cell{{"ram", New(tr, Config{})}, {"paged", New(tr, Config{Pager: pagedSpace(t, 16)})}}
	defer func() {
		for _, c := range cells {
			if err := c.ix.Close(); err != nil {
				t.Errorf("%s: Close: %v", c.name, err)
			}
		}
	}()

	live := make(map[int64]ts.Series)
	var liveIDs []int64
	next := int64(0)
	ctx := context.Background()

	const waves = 6
	for wave := 0; wave < waves; wave++ {
		// Insert a wave of fresh series everywhere.
		for i := 0; i < 120; i++ {
			id := next
			next++
			x := randomWalk(r, testN)
			live[id] = x
			liveIDs = append(liveIDs, id)
			for _, c := range cells {
				if err := c.ix.Add(id, x); err != nil {
					t.Fatalf("%s: Add(%d): %v", c.name, id, err)
				}
			}
		}
		// Remove a burst of random survivors: enough dead slots per wave
		// that tombstones overtake live entries and trigger compaction.
		r.Shuffle(len(liveIDs), func(i, j int) { liveIDs[i], liveIDs[j] = liveIDs[j], liveIDs[i] })
		burst := 80
		if burst > len(liveIDs)-20 {
			burst = len(liveIDs) - 20
		}
		for i := 0; i < burst; i++ {
			id := liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			delete(live, id)
			for _, c := range cells {
				before := c.ix.compactions
				if !c.ix.Remove(id) {
					t.Fatalf("%s: Remove(%d): live id not found", c.name, id)
				}
				// A removal that compacted the index left it freshly
				// repacked: its slots follow its tree's leaf order.
				if c.ix.compactions != before {
					checkLeafOrder(t, fmt.Sprintf("wave %d: Remove(%d) compacted %s", wave, id, c.name), c.ix)
				}
			}
		}

		// Everything agrees with the reference on size and content, and a
		// paged base (immutable between rebuilds) is still in leaf order.
		for _, c := range cells {
			if c.ix.Len() != len(live) {
				t.Fatalf("wave %d: %s: Len = %d, want %d", wave, c.name, c.ix.Len(), len(live))
			}
			if c.ix.st.paged != nil {
				checkLeafOrder(t, fmt.Sprintf("wave %d: %s", wave, c.name), c.ix)
			}
			for _, id := range liveIDs[:10] {
				got, ok := c.ix.Get(id)
				if !ok {
					t.Fatalf("wave %d: %s: Get(%d) missed a live id", wave, c.name, id)
				}
				want := live[id]
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("wave %d: %s: Get(%d)[%d] = %v, want %v", wave, c.name, id, j, got[j], want[j])
					}
				}
			}
			if _, ok := c.ix.Get(next + 1000); ok {
				t.Fatalf("wave %d: %s: Get hit an id never added", wave, c.name)
			}
		}

		// Differential queries: the oracle's ids, distances and order.
		q := randomWalk(r, testN)
		epsilon := float64(testN) * (0.03 + r.Float64()*0.05)
		delta := 0.05 + r.Float64()*0.1
		k := 3 + r.Intn(10)
		all := bruteForce(live, q, delta)
		for _, c := range cells {
			gotRange, _, err := c.ix.RangeQueryCtx(ctx, q, epsilon, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: range: %v", c.name, err)
			}
			diffMatches(t, fmt.Sprintf("wave %d/%s/range", wave, c.name), gotRange, within(all, epsilon))
			gotKNN, _, err := c.ix.KNNCtx(ctx, q, k, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: knn: %v", c.name, err)
			}
			diffMatches(t, fmt.Sprintf("wave %d/%s/knn", wave, c.name), gotKNN, all[:k])
		}
	}

	// The script must actually have exercised compaction, or the test
	// proves nothing about post-compaction correctness.
	for _, c := range cells {
		if c.ix.compactions == 0 {
			t.Errorf("%s: churn script never triggered a compaction", c.name)
		}
	}
}

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
