package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/rtree"
	"warping/internal/ts"
)

func TestBulkLoadValidation(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	if _, err := BulkLoad(tr, Config{}, []Entry{{ID: 1, Series: make(ts.Series, 3)}}); err == nil {
		t.Error("wrong length accepted")
	}
	dup := []Entry{
		{ID: 1, Series: make(ts.Series, testN)},
		{ID: 1, Series: make(ts.Series, testN)},
	}
	if _, err := BulkLoad(tr, Config{}, dup); err == nil {
		t.Error("duplicate ids accepted")
	}
	empty, err := BulkLoad(tr, Config{}, nil)
	if err != nil || empty.st.len() != 0 {
		t.Errorf("empty bulk load: %v len=%d", err, empty.st.len())
	}
}

// TestBulkLoadRefusesAPageTooSmallForALeaf: at dimension 16 a 256-byte
// page holds fewer tree entries than the smallest node capacity, 4, though
// it holds a series record of length 16. The paged build returns the tree
// write's error and leaves no page file behind.
func TestBulkLoadRefusesAPageTooSmallForALeaf(t *testing.T) {
	dir := t.TempDir()
	sp, err := pager.Open(pager.Config{Dir: dir, PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := rand.New(rand.NewSource(256))
	entries := make([]Entry, 40)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, 16)}
	}
	if _, err := BulkLoad(core.NewPAA(16, 16), Config{Pager: sp}, entries); err == nil {
		t.Fatal("a paged bulk load at dimension 16 on 256-byte pages succeeded")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 0 {
		t.Errorf("the failed build left %v (%v)", files, err)
	}
}

// TestBulkLoadReportsTheFirstBadEntry: a bulk load that holds several bad
// entries names the first of them, in entry order, whichever worker of the
// parallel pass meets which — a series that is the wrong length or not
// finite, or an id some earlier entry holds. At one entry a bad series is
// named before its duplicate id. The entries span every worker's chunk.
func TestBulkLoadReportsTheFirstBadEntry(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	holding := func(i int, v float64) ts.Series {
		x := make(ts.Series, testN)
		x[i] = v
		return x
	}
	overflowing := holding(7, math.MaxFloat64)
	overflowing[9] = -math.MaxFloat64
	const m = 64
	for _, tc := range []struct {
		name string
		bad  map[int]Entry
		want string
	}{
		{"a duplicate before a NaN", map[int]Entry{10: {ID: 3}, 50: {ID: 50, Series: holding(2, math.NaN())}},
			"index: duplicate id 3"},
		{"a NaN before a duplicate", map[int]Entry{10: {ID: 10, Series: holding(2, math.NaN())}, 50: {ID: 3}},
			"index: entry 10: series values in [NaN, NaN] are not finite"},
		{"a late duplicate after an early +Inf", map[int]Entry{40: {ID: 40, Series: holding(0, math.Inf(1))}, 63: {ID: 62}},
			"index: entry 40: series values in [0, +Inf] are not finite"},
		{"two bad series", map[int]Entry{60: {ID: 60, Series: holding(5, math.Inf(-1))}, 20: {ID: 20, Series: overflowing}},
			"index: entry 20: series values in [-1.7976931348623157e+308, 1.7976931348623157e+308] are not finite"},
		{"a short series holding a duplicate id", map[int]Entry{30: {ID: 1, Series: make(ts.Series, 3)}},
			fmt.Sprintf("index: entry 30: series length 3, want %d", testN)},
		{"a duplicate id holding a NaN", map[int]Entry{30: {ID: 1, Series: holding(0, math.NaN())}},
			"index: entry 30: series values in [NaN, NaN] are not finite"},
	} {
		entries := make([]Entry, m)
		for i := range entries {
			entries[i] = Entry{ID: int64(i), Series: make(ts.Series, testN)}
			if e, ok := tc.bad[i]; ok {
				if e.Series == nil {
					e.Series = entries[i].Series
				}
				entries[i] = e
			}
		}
		for _, cfg := range []Config{{}, {Pager: pagedSpace(t, 16)}} {
			ix, err := BulkLoad(tr, cfg, entries)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (paged=%v): err = %v, want %s", tc.name, cfg.Pager != nil, err, tc.want)
			}
			if ix != nil {
				_ = ix.Close()
			}
		}
	}
}

// wholeSpace is a query box covering every feature vector.
func wholeSpace(dim int) rtree.Rect {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = math.Inf(-1), math.Inf(1)
	}
	return rtree.Rect{Lo: lo, Hi: hi}
}

// TestBulkAddServesThePackedTree: Index.BulkAdd — the build path of
// qbh.Build, and through it of snapshot load and WAL recovery — leaves the
// index holding exactly the STR-packed tree, never an incrementally grown
// one. A whole-space box query visits every node, so its NodeAccesses is the
// tree's node count: it must equal that of rtree.BulkLoad over the index's
// items at the same node capacity. In paged mode the tree is the paged base,
// the delta is empty, and the index created two page files in all (the
// series column and one base): no intermediate base, and no feature column,
// was ever written. A second BulkAdd is an error.
func TestBulkAddServesThePackedTree(t *testing.T) {
	r := rand.New(rand.NewSource(1601))
	tr := core.NewPAA(testN, testDim)
	// Enough that an incremental paged build would have merged its delta
	// into a new base several times (deltaMergeMin = 1024).
	entries := make([]Entry, 4*deltaMergeMin+200)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	box := wholeSpace(testDim)
	for _, paged := range []bool{false, true} {
		name := fmt.Sprintf("paged=%v", paged)
		cfg := Config{}
		dir := t.TempDir()
		if paged {
			cfg.Pager = pagedSpaceIn(t, dir, 16, nil)
		}
		ix := New(tr, cfg)
		t.Cleanup(func() { _ = ix.Close() }) // before the space's own cleanup
		if err := ix.BulkAdd(entries); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.st.len() != len(entries) {
			t.Fatalf("%s: %d series stored, want %d", name, ix.st.len(), len(entries))
		}
		items := treeItems(t, ix)
		if ix.delta.Len() != 0 || ix.base.Len() != len(items) {
			t.Fatalf("%s: delta holds %d items; want all %d in the base", name, ix.delta.Len(), len(items))
		}
		// One page's capacity in both modes: the same tree in RAM as out of core.
		var want, got rtree.Stats
		rtree.BulkLoad(testDim, rtree.Config{}, items).RangeSearchRectInto(box, 0, nil, &want)
		found, err := ix.base.RangeSearchInto(box, 0, nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		if len(found) != len(items) {
			t.Fatalf("%s: whole-space query found %d of %d items", name, len(found), len(items))
		}
		if got.NodeAccesses != want.NodeAccesses {
			t.Errorf("%s: tree has %d nodes, the STR-packed tree has %d", name, got.NodeAccesses, want.NodeAccesses)
		}
		if paged {
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := ""
			for _, f := range files {
				last = f.Name() // ReadDir sorts; page files are numbered in creation order
			}
			if len(files) != 2 || last != "000001.pages" {
				t.Errorf("%s: %d page files, the newest %s; want 2 ending at 000001.pages (an intermediate base or a feature column was written)",
					name, len(files), last)
			}
		}
		if err := ix.BulkAdd(entries[:1]); err == nil {
			t.Errorf("%s: BulkAdd on a non-empty index succeeded", name)
		}
	}
}

// TestRAMBaseFormatFollowsTheData: in RAM as out of core, the packed base is
// byte records exactly while every series the index holds has one. A bulk
// load of tunes packs them into the byte arena, 8+n bytes a phrase, with no
// float64 copy; tunes added since wait in the float64 tail and a merge packs
// them as byte records too; one random walk among them leaves the base as it
// is until the next merge, which falls back to a float64 base. Every answer
// on the way is the oracle's.
func TestRAMBaseFormatFollowsTheData(t *testing.T) {
	r := rand.New(rand.NewSource(4824))
	var entries []Entry
	for i := range 300 {
		entries = append(entries, Entry{ID: int64(i), Series: tune(r, testN)})
	}
	ix, err := BulkLoad(core.NewPAA(testN, testDim), Config{}, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	add := func(x ts.Series) {
		e := Entry{ID: int64(len(entries)), Series: x}
		entries = append(entries, e)
		if err := ix.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	merge := func() {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if err := ix.repackLive(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, coded bool, base, tail int) {
		t.Helper()
		st := &ix.st
		recs := base
		if !coded {
			recs, tail = 0, base+tail // a float64 base is the arena's head
		}
		if st.coded != coded || st.base != recs || len(st.recs) != recs*(recordHeader+testN) || len(st.xs) != tail*testN {
			t.Fatalf("%s: coded %v, %d byte records in %d B, %d float64 series; want coded %v, %d records, %d series",
				when, st.coded, st.base, len(st.recs), len(st.xs)/testN, coded, recs, tail)
		}
		for trial := range 6 {
			q := tune(r, testN)
			if trial%3 == 0 {
				q = entries[len(entries)-1].Series
			}
			delta := []float64{0.05, 0.1, 0.2}[trial%3]
			got, _, err := ix.KNNCtx(context.Background(), q, 5, delta, Limits{})
			if want := BruteForce(entries, q, delta, 5, nil); err != nil || !sameMatches(got, want) {
				t.Fatalf("%s: kNN %v, err %v; the oracle %v", when, got, err, want)
			}
			eps := 4.0
			got, _ = ix.RangeQuery(q, eps, delta)
			if want := within(BruteForce(entries, q, delta, len(entries), nil), eps); !sameMatches(got, want) {
				t.Fatalf("%s: range query %v; the oracle %v", when, got, want)
			}
		}
	}
	check("bulk load", true, 300, 0)
	for range 50 {
		add(tune(r, testN))
	}
	check("with a delta of tunes", true, 300, 50)
	merge()
	check("after the merge", true, 350, 0)
	add(randomWalk(r, testN))
	add(tune(r, testN))
	check("with a random walk in the delta", true, 350, 2)
	merge()
	check("after the walk's merge", false, 352, 0)
}
