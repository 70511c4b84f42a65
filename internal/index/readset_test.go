package index

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/rtree"
	"warping/internal/store"
	"warping/internal/ts"
)

// pins is the number of page pins the pool has served.
func pins(st pager.Stats) int { return int(st.Hits + st.Misses) }

// TestPagedKNNReadSet: a kNN through the paged R*-tree pins leaf pages and
// series pages and nothing else — the series column is the corpus's only
// one — every real miss is attributed to the query, and the series pages it
// reads are the few next to each other its visited leaves own.
func TestPagedKNNReadSet(t *testing.T) {
	sp := pagedSpace(t, 16)
	r := rand.New(rand.NewSource(1504))
	entries := make([]Entry, 1500)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for trial := 0; trial < 5; trial++ {
		q := randomWalk(r, testN)
		before := sp.Stats()
		_, st, err := ix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		after := sp.Stats()
		if got, max := pins(after)-pins(before), st.Candidates+st.LogicalPages+2; got > max {
			t.Errorf("trial %d: %d page pins for %d candidates over %d nodes, want <= %d",
				trial, got, st.Candidates, st.LogicalPages, max)
		}
		if misses := int(after.Misses - before.Misses); st.PageAccesses != misses {
			t.Errorf("trial %d: PageAccesses = %d, the pool missed %d times", trial, st.PageAccesses, misses)
		}
		if st.CoarseSurvivors != st.Candidates {
			t.Errorf("trial %d: CoarseSurvivors %d is no alias of Candidates %d", trial, st.CoarseSurvivors, st.Candidates)
		}
	}

	// Page-local verification. Slots follow the tree's leaf order, so the M
	// series of one leaf lie on ⌈M / perPage⌉ neighbouring pages, one more
	// where the run straddles a page boundary, and a kNN's candidates come
	// from the leaves it visits: through a pool that holds the whole read
	// set (nothing is read twice) its series-page reads are bounded by the
	// leaves visited, not by the candidates examined. A cold run reads
	// leaves and series pages; the same query with every leaf already
	// resident reads series pages only, and the difference is the leaves.
	big := pagedSpace(t, 1200)
	for len(entries) < 6000 {
		entries = append(entries, Entry{ID: int64(len(entries)), Series: randomWalk(r, testN)})
	}
	bix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: big}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer bix.Close()
	perPage := (big.PageSize() - store.PageHeaderSize) / (8 * testN)
	perLeaf := (rtree.PageCapacity(testDim, big.PageSize())+perPage-1)/perPage + 1
	for trial := 0; trial < 5; trial++ {
		q := randomWalk(r, testN)
		var reads [2]int
		var cands int
		for warm := range reads {
			if err := big.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			if warm == 1 {
				if err := bix.ptree.VisitLeaves(func(rtree.Item) {}); err != nil {
					t.Fatal(err)
				}
			}
			_, st, err := bix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			reads[warm], cands = st.PageAccesses, st.Candidates
		}
		leaves, series := reads[0]-reads[1], reads[1]
		if leaves <= 0 || series <= 0 || big.Stats().Evictions != 0 {
			t.Fatalf("trial %d: %d leaf reads, %d series-page reads, pool %+v", trial, leaves, series, big.Stats())
		}
		if series > leaves*perLeaf {
			t.Errorf("trial %d: %d series pages read for %d candidates from %d leaves, want <= %d per leaf",
				trial, series, cands, leaves, perLeaf)
		}
	}
}

// TestPagedKNNAllocatesLikeRAM: reading the corpus from disk costs a kNN no
// allocations. Through a 16-page pool, where most pins miss, a paged kNN
// allocates no more than the same kNN over the all-in-RAM index.
func TestPagedKNNAllocatesLikeRAM(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	r := rand.New(rand.NewSource(1506))
	entries := make([]Entry, 1500)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	queries := make([]ts.Series, 4)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	sp := pagedSpace(t, 16)
	allocs := func(cfg Config) float64 {
		ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		for _, q := range queries {
			ix.KNN(q, 5, 0.1)
		}
		i := 0
		return testing.AllocsPerRun(40, func() {
			ix.KNN(queries[i%len(queries)], 5, 0.1)
			i++
		})
	}
	ram := allocs(Config{})
	before := sp.Stats().Misses
	paged := allocs(Config{Pager: sp})
	misses := sp.Stats().Misses - before
	t.Logf("allocations per kNN: RAM %v, paged %v (%d pool misses)", ram, paged, misses)
	if misses < 41*10 {
		t.Fatalf("the paged kNNs missed %d times; the pool is not under pressure", misses)
	}
	if paged > ram {
		t.Errorf("a paged kNN allocates %v times, the RAM kNN %v", paged, ram)
	}
}

// TestCascadePinsOnlyConsumedColumns drives the cascade over a paged corpus
// and counts pins per call: the corpus has one column, the series, and each
// candidate pins it once whichever stage ends its run.
func TestCascadePinsOnlyConsumedColumns(t *testing.T) {
	sp := pagedSpace(t, 16)
	st := newCorpus(testN)
	var err error
	if st.col, err = sp.NewColumn(testN); err != nil {
		t.Fatal(err)
	}
	defer st.close()
	r := rand.New(rand.NewSource(1505))
	for i := 0; i < 4; i++ {
		if _, err := st.add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	p := makePlan(randomWalk(r, testN), 0.1, testN, nil)
	v := getVerifier()
	defer putVerifier(v)
	for _, tc := range []struct {
		name string
		w2   float64
		want lbOutcome
		pins int
	}{
		{"series only", math.MaxFloat64, lbPassed, 1},
		{"pruned by LB_Keogh", 0, prunedKeogh, 1},
		{"no threshold yet", math.Inf(1), lbPassed, 1},
	} {
		rd := st.reader()
		c := p.cascade(true)
		before := pins(sp.Stats())
		o, _, err := v.cascade(&c, &rd, 2, tc.w2)
		got := pins(sp.Stats()) - before
		rd.release()
		if err != nil || o != tc.want || got != tc.pins {
			t.Errorf("%s: outcome %d (want %d), %d pins (want %d), err %v", tc.name, o, tc.want, got, tc.pins, err)
		}
	}
}

// survivorCounts are the per-stage counters of one range query.
type survivorCounts struct{ cand, coarse, keogh, lb, dtw int }

func survivorsOf(st QueryStats) survivorCounts {
	return survivorCounts{st.Candidates, st.CoarseSurvivors, st.KeoghSurvivors, st.LBSurvivors, st.ExactDTW}
}

// pinnedCorpus is TestBackendsAndShardCountsAgree's corpus and first query,
// with the range radius the golden survivor counters were recorded at.
func pinnedCorpus() (data []ts.Series, q ts.Series, epsilon float64) {
	r := rand.New(rand.NewSource(77))
	data = make([]ts.Series, 300)
	for i := range data {
		data[i] = randomWalk(r, testN)
	}
	return data, randomWalk(r, testN), testN * 0.12
}

// TestRangeSurvivorCountsPinned: the index's range cascade prunes exactly
// what it pruned before the columns became lazy — golden counters recorded
// at PR 15's parent. The tree applies the fine box stage spatially. (The
// scan baseline's row is pinned in TestBaselineSurvivorCountsPinned.)
func TestRangeSurvivorCountsPinned(t *testing.T) {
	data, q, epsilon := pinnedCorpus()
	ix := New(core.NewPAA(testN, testDim), Config{})
	for i, x := range data {
		ix.MustAdd(int64(i), x)
	}
	_, st, err := ix.RangeQueryCtx(context.Background(), q, epsilon, 0.1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := survivorsOf(st), (survivorCounts{51, 51, 19, 8, 8}); got != want {
		t.Errorf("candidates/coarse/keogh/lb/dtw = %+v, want %+v", got, want)
	}
}

// TestBaselineSurvivorCountsPinned: the scan baseline's range cascade prunes
// exactly what it pruned as a serving backend — golden counters on
// TestRangeSurvivorCountsPinned's corpus. The scan starts from the whole
// corpus. The coarse column is an alias of the
// candidates since PR 28 (the scan's coarse stage let 75 through; LB_Keogh
// prunes the rest at the same threshold, so every later counter is the
// parent's). The scan's New_PAA box stage is gone as well, on the same
// argument, and these numbers did not move with it.
func TestBaselineSurvivorCountsPinned(t *testing.T) {
	data, q, epsilon := pinnedCorpus()
	scan := NewLinearScan(testN, true)
	for i, x := range data {
		if err := scan.Add(int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	_, st := scan.RangeQuery(q, epsilon, 0.1)
	if got, want := survivorsOf(st), (survivorCounts{300, 300, 19, 8, 8}); got != want {
		t.Errorf("scan: candidates/coarse/keogh/lb/dtw = %+v, want %+v", got, want)
	}
}
