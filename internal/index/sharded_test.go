package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"warping/internal/core"
	"warping/internal/ts"
)

// The differential matrix: the same corpus and the same queries through a
// bare Index and through every shard count in {1, 4, 7}, each on both storage
// backends — RAM arenas and page files behind a 16-page pool — must equal the
// brute-force oracle: ids, distances and (distance, id) order. The shared
// refinement cascade, the kNN shared-bound merge and the pager must not
// change a single result. Run under -race this also exercises the parallel
// fan-out.
func TestBackendsAndShardCountsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	tr := core.NewPAA(testN, testDim)
	const count = 300

	data := make([]ts.Series, count)
	for i := range data {
		data[i] = randomWalk(r, testN)
	}
	oracle := seriesByID(data)

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
		ix := New(tr, cfg())
		t.Cleanup(func() { _ = ix.Close() })
		cells = append(cells, cell{fmt.Sprintf("index/paged=%v", paged), ix})
		for _, shards := range []int{1, 4, 7} {
			sh, err := NewSharded("", tr, cfg(), shards)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sh.Close() })
			cells = append(cells, cell{fmt.Sprintf("shards=%d/paged=%v", shards, paged), sh})
		}
	}
	for _, c := range cells {
		for i, x := range data {
			if err := c.s.Add(int64(i), x); err != nil {
				t.Fatalf("%s: Add(%d): %v", c.name, i, err)
			}
		}
		if c.s.Len() != count {
			t.Fatalf("%s: Len = %d, want %d", c.name, c.s.Len(), count)
		}
	}

	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		q := randomWalk(r, testN)
		epsilon := float64(testN) * (0.03 + r.Float64()*0.05)
		delta := 0.02 + r.Float64()*0.15
		k := 1 + r.Intn(12)

		all := bruteForce(oracle, q, delta)
		for _, c := range cells {
			gotRange, _, err := c.s.RangeQueryCtx(ctx, q, epsilon, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: range: %v", c.name, err)
			}
			diffMatches(t, c.name+"/range", gotRange, within(all, epsilon))
			gotKNN, _, err := c.s.KNNCtx(ctx, q, k, delta, Limits{})
			if err != nil {
				t.Fatalf("%s: knn: %v", c.name, err)
			}
			diffMatches(t, c.name+"/knn", gotKNN, all[:k])
		}
	}
}

// LinearScan.Add returns an error on a length mismatch or a duplicate id; it
// never panics.
func TestLinearScanAddValidation(t *testing.T) {
	scan := NewLinearScan(testN, true)
	if err := scan.Add(1, make(ts.Series, 5)); err == nil {
		t.Error("wrong length accepted (previously panicked)")
	}
	if err := scan.Add(1, make(ts.Series, testN)); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
	if err := scan.Add(1, make(ts.Series, testN)); err == nil {
		t.Error("duplicate id accepted")
	}
	if scan.Len() != 1 {
		t.Errorf("Len = %d after rejected adds, want 1", scan.Len())
	}
}

// The Index on either storage backend and the Sharded composite reject bad
// adds and bad queries identically, with errors rather than panics.
func TestBackendsUniformValidation(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	sh, err := NewSharded("", tr, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	paged := New(tr, Config{Pager: pagedSpace(t, 16)})
	defer paged.Close()
	for name, s := range map[string]querier{"index/ram": New(tr, Config{}), "index/paged": paged, "sharded": sh} {
		if err := s.Add(1, make(ts.Series, 3)); err == nil {
			t.Errorf("%s: wrong length accepted", name)
		}
		if err := s.Add(1, make(ts.Series, testN)); err != nil {
			t.Errorf("%s: valid add failed: %v", name, err)
		}
		if err := s.Add(1, make(ts.Series, testN)); err == nil {
			t.Errorf("%s: duplicate id accepted", name)
		}
		bad := make(ts.Series, 9)
		if _, _, err := s.RangeQueryCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
			t.Errorf("%s: range err = %v, want ErrQueryLength", name, err)
		}
		if _, _, err := s.KNNCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
			t.Errorf("%s: knn err = %v, want ErrQueryLength", name, err)
		}
	}
}

func TestShardedBasics(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	if _, err := NewSharded("", tr, Config{}, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewSharded("grid", tr, Config{}, 1); err == nil {
		t.Error("a structure other than the R*-tree accepted")
	}
	sh, err := NewSharded("rtree", tr, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 4 {
		t.Errorf("NumShards = %d", sh.NumShards())
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		if err := sh.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	if sh.Len() != 64 {
		t.Errorf("Len = %d", sh.Len())
	}
	if err := sh.Add(10, randomWalk(r, testN)); err == nil {
		t.Error("duplicate id accepted")
	}
	lens := sh.ShardLens()
	total := 0
	for _, n := range lens {
		total += n
		if n == 0 {
			t.Errorf("empty shard in %v: hash is not spreading sequential ids", lens)
		}
	}
	if total != 64 {
		t.Errorf("ShardLens sum = %d, want 64", total)
	}
	if _, ok := sh.Get(10); !ok {
		t.Error("Get(10) missed")
	}
	if !sh.Remove(10) {
		t.Error("Remove(10) failed")
	}
	if sh.Remove(10) {
		t.Error("double Remove succeeded")
	}
	if sh.Len() != 63 {
		t.Errorf("Len after remove = %d", sh.Len())
	}
	seen := 0
	sh.Visit(func(id int64, x ts.Series) { seen++ })
	if seen != 63 {
		t.Errorf("Visit saw %d", seen)
	}
}

// The acceptance-criteria race test: with one shard's writer blocked
// mid-Add (holding that shard's write lock via AddHook), single-shard
// operations on every other shard complete, and a deadline-bounded
// fanned-out query returns promptly with the partial results collected
// from the shards that could answer — a write no longer stalls unrelated
// reads. Run with -race.
func TestShardedWriteDoesNotStallOtherShards(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := core.NewPAA(testN, testDim)
	const shards = 4
	sh, err := NewSharded("", tr, Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sh.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}

	// Pick fresh ids on distinct shards.
	nextOn := func(shard int, from int64) int64 {
		for id := from; ; id++ {
			if _, ok := sh.Get(id); !ok && sh.shardOf(id) == shard {
				return id
			}
		}
	}
	const blockedShard = 0
	blockedID := nextOn(blockedShard, 1000)
	otherShard := 1
	otherID := nextOn(otherShard, 1000)

	block := make(chan struct{})
	entered := make(chan struct{})
	sh.AddHook = func(idx int) {
		if idx == blockedShard {
			close(entered)
			<-block // hold shard 0's write lock until released
		}
	}

	writerDone := make(chan error, 1)
	go func() { writerDone <- sh.Add(blockedID, randomWalk(rand.New(rand.NewSource(1)), testN)) }()
	<-entered // shard 0's write lock is now held

	// 1. A write to another shard completes while shard 0 is blocked.
	addDone := make(chan error, 1)
	go func() { addDone <- sh.Add(otherID, randomWalk(rand.New(rand.NewSource(2)), testN)) }()
	select {
	case err := <-addDone:
		if err != nil {
			t.Fatalf("Add on unblocked shard: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Add on unblocked shard stalled behind shard 0's writer")
	}

	// 2. A point read on another shard completes.
	readDone := make(chan bool, 1)
	go func() { _, ok := sh.Get(otherID); readDone <- ok }()
	select {
	case ok := <-readDone:
		if !ok {
			t.Fatal("Get on unblocked shard missed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get on unblocked shard stalled")
	}

	// 3. A fanned-out query with a deadline returns promptly with the
	// partial results from the three unblocked shards instead of waiting
	// for shard 0's reader lock.
	q := randomWalk(r, testN)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	matches, _, qerr := sh.KNNCtx(ctx, q, 5, 0.1, Limits{})
	elapsed := time.Since(start)
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("query err = %v, want DeadlineExceeded (shard 0 is blocked)", qerr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %v despite its 300ms deadline", elapsed)
	}
	if len(matches) == 0 {
		t.Fatal("no partial results from the unblocked shards")
	}

	// Release the writer; the system returns to full service.
	close(block)
	if err := <-writerDone; err != nil {
		t.Fatalf("blocked Add finished with: %v", err)
	}
	full, _, err := sh.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 5 {
		t.Fatalf("post-release query returned %d matches", len(full))
	}
}

// Concurrent mixed load over a Sharded index; meaningful under -race.
func TestShardedConcurrentStress(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tr := core.NewPAA(testN, testDim)
	sh, err := NewSharded("", tr, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := sh.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]ts.Series, 8)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				id := int64(1000 + w*100 + i)
				if err := sh.Add(id, randomWalk(rr, testN)); err != nil {
					t.Errorf("Add(%d): %v", id, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(g+i)%len(queries)]
				if _, _, err := sh.KNNCtx(context.Background(), q, 3, 0.1, Limits{}); err != nil {
					t.Errorf("KNNCtx: %v", err)
					return
				}
				if _, _, err := sh.RangeQueryCtx(context.Background(), q, float64(testN)*0.04, 0.1, Limits{}); err != nil {
					t.Errorf("RangeQueryCtx: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sh.Len() != 200 {
		t.Errorf("Len = %d, want 200", sh.Len())
	}
}

// The shared exact-DTW budget spans all shards of one query: the summed
// ExactDTW across shards never exceeds the budget, and a capped query is
// flagged Degraded.
func TestShardedSharedDTWBudget(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tr := core.NewPAA(testN, testDim)
	sh, err := NewSharded("", tr, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := sh.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomWalk(r, testN)
	// Unlimited baseline to know the query's true cost.
	_, free, err := sh.KNNCtx(context.Background(), q, 10, 0.1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if free.ExactDTW < 20 {
		t.Skipf("query too cheap to cap (ExactDTW=%d)", free.ExactDTW)
	}
	budget := free.ExactDTW / 4
	_, capped, err := sh.KNNCtx(context.Background(), q, 10, 0.1, Limits{MaxExactDTW: budget})
	if err != nil {
		t.Fatal(err)
	}
	if capped.ExactDTW > budget {
		t.Errorf("ExactDTW %d exceeds the shared budget %d", capped.ExactDTW, budget)
	}
	if !capped.Degraded {
		t.Error("capped query not flagged Degraded")
	}
}
