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

// indexesOf returns the bare indexes behind s, one per shard.
func indexesOf(s querier) []*Index {
	switch b := s.(type) {
	case *Index:
		return []*Index{b}
	case *Sharded:
		out := make([]*Index, len(b.shards))
		for i, sh := range b.shards {
			out[i] = sh.ix
		}
		return out
	}
	return nil
}

// compactionsOf sums arena compaction counts across the (possibly sharded)
// index — white-box observability for the churn test.
func compactionsOf(s querier) int {
	total := 0
	for _, ix := range indexesOf(s) {
		total += ix.compactions
	}
	return total
}

// TestChurnCompactionBackendsAgree drives a bare Index and shard counts
// {2, 5}, each on both storage backends (RAM, 16-page pool), through the same
// heavy interleaved Add/Remove script — waves of inserts followed by removal
// bursts sized to push tombstones past the arena's compaction threshold —
// and checks after every wave that all of them return the brute-force
// oracle's range and kNN results over the survivors, that removed ids are
// gone and survivors read back with the right values, and (white-box) that
// the churn really did force at least one compaction everywhere. Run under
// -race this also exercises compaction against the parallel fan-out.
func TestChurnCompactionBackendsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(411))
	tr := core.NewPAA(testN, testDim)

	type cell struct {
		name string
		s    querier
	}
	var cells []cell
	for _, paged := range []bool{false, true} {
		cfg := func() Config {
			if paged {
				return Config{Pager: pagedSpace(t, 16)}
			}
			return Config{}
		}
		cells = append(cells, cell{fmt.Sprintf("index/paged=%v", paged), New(tr, cfg())})
		for _, shards := range []int{2, 5} {
			sh, err := NewSharded("", tr, cfg(), shards)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{fmt.Sprintf("shards=%d/paged=%v", shards, paged), sh})
		}
	}
	defer func() {
		for _, c := range cells {
			if err := c.s.Close(); err != nil {
				t.Errorf("%s: Close: %v", c.name, err)
			}
		}
	}()

	live := make(map[int64]ts.Series)
	var liveIDs []int64
	next := int64(0)
	ctx := context.Background()

	applyAll := func(op string, fn func(s querier) error) {
		t.Helper()
		for _, c := range cells {
			if err := fn(c.s); err != nil {
				t.Fatalf("%s: %s: %v", c.name, op, err)
			}
		}
	}

	const waves = 6
	for wave := 0; wave < waves; wave++ {
		// Insert a wave of fresh series everywhere.
		for i := 0; i < 120; i++ {
			id := next
			next++
			x := randomWalk(r, testN)
			live[id] = x
			liveIDs = append(liveIDs, id)
			applyAll(fmt.Sprintf("Add(%d)", id), func(s querier) error { return s.Add(id, x) })
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
			applyAll(fmt.Sprintf("Remove(%d)", id), func(s querier) error {
				ixs := indexesOf(s)
				before := make([]int, len(ixs))
				for i, ix := range ixs {
					before[i] = ix.compactions
				}
				if !s.Remove(id) {
					return fmt.Errorf("live id not found")
				}
				// A removal that compacted a shard left it freshly repacked:
				// its slots follow its tree's leaf order.
				for i, ix := range ixs {
					if ix.compactions != before[i] {
						checkLeafOrder(t, fmt.Sprintf("wave %d: Remove(%d) compacted index %d", wave, id, i), ix)
					}
				}
				return nil
			})
		}

		// Everything agrees with the reference on size and content, and a
		// paged base (immutable between rebuilds) is still in leaf order.
		for _, c := range cells {
			if c.s.Len() != len(live) {
				t.Fatalf("wave %d: %s: Len = %d, want %d", wave, c.name, c.s.Len(), len(live))
			}
			for i, ix := range indexesOf(c.s) {
				if ix.st.paged != nil {
					checkLeafOrder(t, fmt.Sprintf("wave %d: %s index %d", wave, c.name, i), ix)
				}
			}
		}
		// Spot-check values and misses on a bare index and a paged sharded one.
		for _, c := range []cell{cells[0], cells[len(cells)-1]} {
			for _, id := range liveIDs[:10] {
				got, ok := c.s.Get(id)
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
			if _, ok := c.s.Get(next + 1000); ok {
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
			gotRange, _, err := c.s.RangeQueryCtx(ctx, q, epsilon, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: range: %v", c.name, err)
			}
			diffMatches(t, fmt.Sprintf("wave %d/%s/range", wave, c.name), gotRange, within(all, epsilon))
			gotKNN, _, err := c.s.KNNCtx(ctx, q, k, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: knn: %v", c.name, err)
			}
			diffMatches(t, fmt.Sprintf("wave %d/%s/knn", wave, c.name), gotKNN, all[:k])
		}
	}

	// The script must actually have exercised compaction, or the test
	// proves nothing about post-compaction correctness.
	for _, c := range cells {
		if compactionsOf(c.s) == 0 {
			t.Errorf("%s: churn script never triggered a compaction", c.name)
		}
	}
}

// countingEnvTransform counts ApplyEnvelope calls atomically: without
// plan sharing each fan-out shard would call it from its own goroutine.
type countingEnvTransform struct {
	core.Transform
	envApplies atomic.Int64
}

func (c *countingEnvTransform) ApplyEnvelope(e dtw.Envelope) core.FeatureEnvelope {
	c.envApplies.Add(1)
	return c.Transform.ApplyEnvelope(e)
}

// TestApplyEnvelopeOncePerLogicalQuery is the plan-sharing acceptance
// test: one logical query runs the envelope transform exactly once, no
// matter the shard count or how many times a precomputed plan is reused.
func TestApplyEnvelopeOncePerLogicalQuery(t *testing.T) {
	r := rand.New(rand.NewSource(412))
	ctx := context.Background()
	for _, shards := range []int{1, 4, 7} {
		name := fmt.Sprintf("shards=%d", shards)
		tr := &countingEnvTransform{Transform: core.NewPAA(testN, testDim)}
		sh, err := NewSharded("", tr, Config{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			if err := sh.Add(int64(i), randomWalk(r, testN)); err != nil {
				t.Fatal(err)
			}
		}
		q := randomWalk(r, testN)

		tr.envApplies.Store(0)
		if _, _, err := sh.RangeQueryCtx(ctx, q, float64(testN)*0.05, 0.1, Limits{}); err != nil {
			t.Fatal(err)
		}
		if got := tr.envApplies.Load(); got != 1 {
			t.Errorf("%s: RangeQueryCtx ran ApplyEnvelope %d times, want 1", name, got)
		}

		tr.envApplies.Store(0)
		if _, _, err := sh.KNNCtx(ctx, q, 5, 0.1, Limits{}); err != nil {
			t.Fatal(err)
		}
		if got := tr.envApplies.Load(); got != 1 {
			t.Errorf("%s: KNNCtx ran ApplyEnvelope %d times, want 1", name, got)
		}

		// An explicitly shared plan amortizes across any number of
		// queries.
		tr.envApplies.Store(0)
		p, err := sh.NewPlan(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := sh.RangeQueryPlan(ctx, p, float64(testN)*0.05, Limits{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sh.KNNPlan(ctx, p, 4+i, Limits{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := tr.envApplies.Load(); got != 1 {
			t.Errorf("%s: plan reused 6 times ran ApplyEnvelope %d times, want 1", name, got)
		}
	}
}
