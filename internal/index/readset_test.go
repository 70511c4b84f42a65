package index

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/pager"
	"warping/internal/rtree"
	"warping/internal/store"
	"warping/internal/ts"
)

// pins is the number of page pins the pool has served.
func pins(st pager.Stats) int { return int(st.Hits + st.Misses) }

// TestPagedKNNReadSet: a kNN through the paged R*-tree pins leaf pages,
// shadow pages and series pages and nothing else — each candidate pins each
// column at most once, and the walk at most one leaf per node visit — every
// real miss is attributed to the query, and the shadow and series pages it
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
		shadowPins, seriesPins, leafPins := st.Candidates, st.Candidates, st.LogicalPages
		if got, max := pins(after)-pins(before), shadowPins+seriesPins+leafPins+2; got > max {
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
	// records of one leaf lie on ⌈M / perPage⌉ neighbouring pages of each
	// column, one more where the run straddles a page boundary, and a kNN's
	// candidates come from the leaves it visits: through a pool that holds
	// the whole read set (nothing is read twice) its shadow-page and
	// series-page reads are bounded by the leaves visited, not by the
	// candidates examined. The same query runs cold, with every leaf already
	// resident, and with every leaf and shadow resident; the differences are
	// the leaf and the shadow reads, and the last run reads series pages only.
	big := pagedSpace(t, 1200)
	for len(entries) < 6000 {
		entries = append(entries, Entry{ID: int64(len(entries)), Series: randomWalk(r, testN)})
	}
	bix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: big}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer bix.Close()
	perLeaf := func(recordBytes int) int {
		perPage := (big.PageSize() - store.PageHeaderSize) / recordBytes
		return (rtree.PageCapacity(testDim, big.PageSize())+perPage-1)/perPage + 1
	}
	seriesPerLeaf, shadowPerLeaf := perLeaf(8*testN), perLeaf(dtw.ShadowSize(testN))
	for trial := 0; trial < 5; trial++ {
		q := randomWalk(r, testN)
		var reads [3]int
		var cands int
		for warm := range reads {
			if err := big.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			if warm >= 1 {
				if err := bix.base.VisitLeaves(func(rtree.Item) {}); err != nil {
					t.Fatal(err)
				}
			}
			if warm == 2 {
				rd := bix.st.reader()
				for slot := range bix.st.ids {
					if _, _, err := rd.shadow(slot); err != nil {
						t.Fatal(err)
					}
				}
				rd.release()
			}
			_, st, err := bix.KNNCtx(context.Background(), q, 5, 0.1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			reads[warm], cands = st.PageAccesses, st.Candidates
		}
		leaves, shadows, series := reads[0]-reads[1], reads[1]-reads[2], reads[2]
		if leaves <= 0 || shadows <= 0 || series <= 0 || big.Stats().Evictions != 0 {
			t.Fatalf("trial %d: %d leaf, %d shadow-page and %d series-page reads, pool %+v", trial, leaves, shadows, series, big.Stats())
		}
		if shadows > leaves*shadowPerLeaf {
			t.Errorf("trial %d: %d shadow pages read for %d candidates from %d leaves, want <= %d per leaf",
				trial, shadows, cands, leaves, shadowPerLeaf)
		}
		if series > leaves*seriesPerLeaf {
			t.Errorf("trial %d: %d series pages read for %d candidates from %d leaves, want <= %d per leaf",
				trial, series, cands, leaves, seriesPerLeaf)
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

// spilledCorpus is a corpus holding xs out of core in sp, as repack writes
// one: xs[i] in slot i of a sealed series column, its shadow in the same slot
// of the shadow column.
func spilledCorpus(t testing.TB, sp *pager.Space, xs ...ts.Series) *corpus {
	t.Helper()
	st := newCorpus(len(xs[0]))
	if err := st.openColumns(sp); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if err := st.checkSeries(x); err != nil {
			t.Fatal(err)
		}
		if _, err := st.spill(int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestCascadePinsOnlyConsumedColumns drives the cascade over a paged corpus
// and counts pins per call and per column: a candidate pins its shadow
// first and its series only if the shadow did not prune it, and with no
// threshold yet, when nothing can prune, it pins its series alone. The pool
// is emptied before each call, so every pin misses and a cursor's misses are
// its column's pins.
func TestCascadePinsOnlyConsumedColumns(t *testing.T) {
	sp := pagedSpace(t, 16)
	r := rand.New(rand.NewSource(1505))
	xs := make([]ts.Series, 4)
	for i := range xs {
		xs[i] = randomWalk(r, testN)
	}
	st := spilledCorpus(t, sp, xs...)
	defer st.close()
	p := makePlan(randomWalk(r, testN), 0.1, testN, nil)
	sc := getScratch()
	defer putScratch(sc)

	// The shadow's bound lies below LB_Keogh's; a threshold between them
	// passes the shadow and prunes at LB_Keogh.
	rd := st.reader()
	sh, _, err := rd.shadow(2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := rd.series(2)
	if err != nil {
		t.Fatal(err)
	}
	shadow, _ := dtw.SquaredShadowDistToEnvelopeWithin(sh, p.env, math.Inf(1))
	keogh, _ := dtw.SquaredDistToEnvelopeWithin(x, p.env, math.Inf(1))
	rd.release()
	if !(0 < shadow && shadow < keogh) {
		t.Fatalf("shadow bound %v, LB_Keogh %v: no threshold separates them", shadow, keogh)
	}

	for _, tc := range []struct {
		name                   string
		w2                     float64
		want                   lbOutcome
		shadowPins, seriesPins int
	}{
		{"pruned by the shadow", 0, prunedKeogh, 1, 0},
		{"pruned by LB_Keogh", shadow, prunedKeogh, 1, 1},
		{"series only", math.MaxFloat64, lbPassed, 1, 1},
		{"no threshold yet", math.Inf(1), lbPassed, 0, 1},
	} {
		if err := sp.Pool().Reset(); err != nil {
			t.Fatal(err)
		}
		rf := newRefiner(st, p, true, Limits{}, sc)
		o, _, err := rf.cascade(2, tc.w2)
		got := pins(sp.Stats())
		shadowPins, seriesPins := rf.r.shc.Misses, rf.r.cur.Misses
		rf.r.release()
		if err != nil || o != tc.want || got != tc.shadowPins+tc.seriesPins ||
			shadowPins != tc.shadowPins || seriesPins != tc.seriesPins {
			t.Errorf("%s: outcome %d (want %d), %d pins: %d shadow (want %d), %d series (want %d), err %v",
				tc.name, o, tc.want, got, shadowPins, tc.shadowPins, seriesPins, tc.seriesPins, err)
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
