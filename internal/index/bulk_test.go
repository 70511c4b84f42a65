package index

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"warping/internal/core"
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
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty bulk load: %v len=%d", err, empty.Len())
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
// the delta is empty, and the index created three page files in all (the
// series and shadow columns and one base): no intermediate base, and no
// feature column, was ever written. A second BulkAdd is an error.
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
			cfg.Pager = pagedSpaceIn(t, dir, 16)
		}
		ix := New(tr, cfg)
		t.Cleanup(func() { _ = ix.Close() }) // before the space's own cleanup
		if err := ix.BulkAdd(entries); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Len() != len(entries) {
			t.Fatalf("%s: Len = %d, want %d", name, ix.Len(), len(entries))
		}
		items := treeItems(t, ix)
		if len(ix.delta) != 0 || ix.base.Len() != len(items) {
			t.Fatalf("%s: delta holds %d items; want all %d in the base", name, len(ix.delta), len(items))
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
			if len(files) != 3 || last != "000002.pages" {
				t.Errorf("%s: %d page files, the newest %s; want 3 ending at 000002.pages (an intermediate base or a feature column was written)",
					name, len(files), last)
			}
		}
		if err := ix.BulkAdd(entries[:1]); err == nil {
			t.Errorf("%s: BulkAdd on a non-empty index succeeded", name)
		}
	}
}
