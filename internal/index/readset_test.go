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

// families are the two kinds of corpus a paged index stores differently:
// random walks in a column of float64 series, pitch-derived normal forms in
// one of byte records.
var families = []struct {
	name  string
	gen   func(*rand.Rand, int) ts.Series
	coded bool
}{{"walks", randomWalk, false}, {"tunes", tune, true}}

// TestPagedKNNReadSet: a kNN through the paged R*-tree pins leaf pages and
// series pages and nothing else — each candidate pins the column at most
// once, and the walk at most one leaf per node visit — every real miss is
// attributed to the query, and the series pages it reads are the few next to
// each other its visited leaves own. Both record formats.
func TestPagedKNNReadSet(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) { testPagedKNNReadSet(t, fam.gen, fam.coded) })
	}
}

func testPagedKNNReadSet(t *testing.T, gen func(*rand.Rand, int) ts.Series, coded bool) {
	sp := pagedSpace(t, 16)
	r := rand.New(rand.NewSource(1504))
	entries := make([]Entry, 1500)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: gen(r, testN)}
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.st.coded != coded {
		t.Fatalf("the column holds byte records: %v, want %v", ix.st.coded, coded)
	}
	for trial := 0; trial < 5; trial++ {
		q := gen(r, testN)
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
	// records of one leaf lie on ⌈M / perPage⌉ neighbouring pages of the
	// column, one more where the run straddles a page boundary, and a kNN's
	// candidates come from the leaves it visits: through a pool that holds
	// the whole read set (nothing is read twice) its series-page reads are
	// bounded by the leaves visited, not by the candidates examined. The same
	// query runs cold and with every leaf already resident; the difference is
	// the leaf reads, and the second run reads series pages only.
	big := pagedSpace(t, 1200)
	for len(entries) < 6000 {
		entries = append(entries, Entry{ID: int64(len(entries)), Series: gen(r, testN)})
	}
	bix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: big}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer bix.Close()
	record := 8 * testN
	if coded {
		record = recordHeader + testN
	}
	perPage := (big.PageSize() - store.PageHeaderSize) / record
	seriesPerLeaf := (rtree.PageCapacity(testDim, big.PageSize())+perPage-1)/perPage + 1
	for trial := 0; trial < 5; trial++ {
		q := gen(r, testN)
		var reads [2]int
		var cands int
		for warm := range reads {
			if err := big.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			if warm == 1 {
				if err := bix.base.VisitLeaves(func(rtree.Item) {}); err != nil {
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
			t.Fatalf("trial %d: %d leaf and %d series-page reads, pool %+v", trial, leaves, series, big.Stats())
		}
		if series > leaves*seriesPerLeaf {
			t.Errorf("trial %d: %d series pages read for %d candidates from %d leaves, want <= %d per leaf",
				trial, series, cands, leaves, seriesPerLeaf)
		}
	}
}

// TestPagedRangeReadSet: a paged range query reads each page it needs
// once. Through a 16-page pool its PageAccesses are exactly the leaves its
// walk opens plus the distinct column pages its candidates' records lie on:
// the walk opens each leaf once, and the candidates are refined in slot
// order, so the records of one page are read one after another. Refined in
// the walk's distance order they would interleave the leaves' runs of the
// column, and a pool this small would read pages again. Both record
// formats; the radius is the query's 30th-nearest DTW distance.
func TestPagedRangeReadSet(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) { testPagedRangeReadSet(t, fam.gen, fam.coded) })
	}
}

func testPagedRangeReadSet(t *testing.T, gen func(*rand.Rand, int) ts.Series, coded bool) {
	sp := pagedSpace(t, 16)
	r := rand.New(rand.NewSource(1606))
	entries := make([]Entry, 1500)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: gen(r, testN)}
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{Pager: sp}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	record := 8 * testN
	if coded {
		record = recordHeader + testN
	}
	perPage := int32((sp.PageSize() - store.PageHeaderSize) / record)
	for trial := 0; trial < 5; trial++ {
		q := gen(r, testN)
		p, err := ix.NewPlan(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, err := ix.KNNPlan(context.Background(), p, 30, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		epsilon := ms[len(ms)-1].Dist

		// The walk alone, from a cold pool: its leaf reads, and the
		// column pages its candidates lie on.
		if err := sp.Pool().Reset(); err != nil {
			t.Fatal(err)
		}
		var walk rtree.Stats
		it := ix.base.NNIter(rtree.Rect{Lo: p.fe.Lower, Hi: p.fe.Upper}, &walk)
		var cands []rtree.Neighbor
		for nb, ok := it.Next(epsilon); ok; nb, ok = it.Next(epsilon) {
			cands = append(cands, nb)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		pages := map[int32]bool{}
		for _, c := range cands {
			pages[c.Slot/perPage] = true
		}

		if err := sp.Pool().Reset(); err != nil {
			t.Fatal(err)
		}
		_, st, err := ix.RangeQueryPlan(context.Background(), p, epsilon, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != len(cands) || len(pages) < 2 {
			t.Fatalf("trial %d: %d candidates refined on %d pages, the walk found %d", trial, st.Candidates, len(pages), len(cands))
		}
		if want := walk.PageMisses + len(pages); st.PageAccesses != want {
			t.Errorf("trial %d: %d page reads for %d candidates, want %d: %d leaves and %d column pages, each read once",
				trial, st.PageAccesses, st.Candidates, want, walk.PageMisses, len(pages))
		}
	}
}

// TestPagedKNNAllocatesLikeRAM: reading the corpus from disk costs a kNN no
// allocations — a byte record is decoded into the query's pooled scratch.
// Through a 16-page pool, where most pins miss, a paged kNN allocates no
// more than the same kNN over the all-in-RAM index, in both record formats.
func TestPagedKNNAllocatesLikeRAM(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1506))
			entries := make([]Entry, 1500)
			for i := range entries {
				entries[i] = Entry{ID: int64(i), Series: fam.gen(r, testN)}
			}
			queries := make([]ts.Series, 4)
			for i := range queries {
				queries[i] = fam.gen(r, testN)
			}
			sp := pagedSpace(t, 16)
			allocs := func(cfg Config) float64 {
				ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				if cfg.Pager != nil && ix.st.coded != fam.coded {
					t.Fatalf("the column holds byte records: %v, want %v", ix.st.coded, fam.coded)
				}
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
		})
	}
}

// packedCorpus is a corpus holding xs as its packed base, as repack writes
// one: xs[i] in slot i, of byte records if every x has one, out of core in a
// sealed column of sp or, with a nil sp, in RAM.
func packedCorpus(t testing.TB, sp *pager.Space, xs ...ts.Series) *corpus {
	t.Helper()
	st := newCorpus(len(xs[0]))
	for _, x := range xs {
		if err := checkSeries(st.n, x); err != nil {
			t.Fatal(err)
		}
		st.uncodable = st.uncodable || !encode(nil, x)
	}
	if err := st.openBase(sp, len(xs)); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if err := st.pack(int64(i), nil, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestCascadePinsOnlyConsumedColumns drives the cascade over a paged corpus
// and counts pins per call: whichever stage ends a candidate — LB_Keogh,
// LB_KeoghEC, LB_Improved, or none, with or without a threshold — it pins
// the one column's page once and nothing else, and a passed candidate comes
// back as its series bit for bit. The pool is emptied before each call, so
// every pin misses. Both record formats.
func TestCascadePinsOnlyConsumedColumns(t *testing.T) {
	for _, fam := range families {
		sp := pagedSpace(t, 16)
		r := rand.New(rand.NewSource(1505))
		xs := make([]ts.Series, 16)
		for i := range xs {
			xs[i] = fam.gen(r, testN)
		}
		st := packedCorpus(t, sp, xs...)
		defer st.close()
		if st.coded != fam.coded {
			t.Fatalf("%s: the column holds byte records: %v", fam.name, st.coded)
		}
		p := makePlan(fam.gen(r, testN), 0.1, testN, nil)
		sc := getScratch()
		defer putScratch(sc)

		// Each stage ends a candidate at a threshold the stages before it
		// pass: 0 below LB_Keogh, LB_Keogh below LB_KeoghEC, and the larger
		// of the two below LB_Improved.
		type bounds struct{ keogh, ec, improved float64 }
		bs := make([]bounds, len(xs))
		for i, x := range xs {
			b := &bs[i]
			b.keogh, _ = dtw.SquaredDistToEnvelopeWithin(x, p.env, math.Inf(1))
			b.ec, _ = sc.ws.SquaredLBKeoghECWithin(p.q, x, p.band, math.Inf(1))
			b.improved, _ = sc.ws.SquaredLBImprovedWithin(p.q, x, p.env, p.band, b.keogh, math.Inf(1))
		}
		slotWhere := func(stage string, ok func(bounds) bool) int {
			for i, b := range bs {
				if ok(b) {
					return i
				}
			}
			t.Fatalf("%s: no candidate of %v has a threshold that ends it at %s", fam.name, bs, stage)
			return 0
		}
		keogh := slotWhere("LB_Keogh", func(b bounds) bool { return b.keogh > 0 })
		ec := slotWhere("LB_KeoghEC", func(b bounds) bool { return b.keogh < b.ec })
		improved := slotWhere("LB_Improved", func(b bounds) bool { return max(b.keogh, b.ec) < b.improved })
		for _, tc := range []struct {
			name string
			slot int
			w2   float64
			want lbOutcome
		}{
			{"pruned by LB_Keogh", keogh, 0, prunedKeogh},
			{"pruned by LB_KeoghEC", ec, bs[ec].keogh, prunedEC},
			{"pruned by LB_Improved", improved, max(bs[improved].keogh, bs[improved].ec), prunedImproved},
			{"passed", 2, math.MaxFloat64, lbPassed},
			{"no threshold yet", 2, math.Inf(1), lbPassed},
		} {
			if err := sp.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			rf := newRefiner(st, p, true, Limits{}, sc)
			o, x, err := rf.cascade(tc.slot, tc.w2)
			got, misses := pins(sp.Stats()), rf.r.misses()
			if err != nil || o != tc.want || got != 1 || misses != 1 {
				t.Errorf("%s: %s: outcome %d (want %d), %d pins and %d misses (want 1), err %v",
					fam.name, tc.name, o, tc.want, got, misses, err)
			}
			if o == lbPassed && !sameBits(x, xs[tc.slot]) {
				t.Errorf("%s: %s: the cascade passed on %v, not the series", fam.name, tc.name, x)
			}
			rf.r.release()
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
		if err := ix.Add(int64(i), x); err != nil {
			t.Fatal(err)
		}
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
