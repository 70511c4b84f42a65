package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"warping/internal/core"
	"warping/internal/rtree"
)

// checkLeafOrder asserts the layout invariant of the packed base and its
// delta: a record's slot is its entry's position. Walking the base's leaves
// and then the delta meets the ids of slots 0, 1, 2, … up to the last slot
// (ids[slot] is the entry's id, and slots[id] maps back). The base is
// immutable in both modes, so the invariant holds between rebuilds too,
// delta included.
func checkLeafOrder(t testing.TB, name string, ix *Index) {
	t.Helper()
	st := &ix.st
	items := treeItems(t, ix)
	for pos, it := range items {
		if pos >= len(st.ids) || st.ids[pos] != it.ID || st.slots[it.ID] != int32(pos) {
			t.Errorf("%s: the entry at position %d is id %d, the corpus's %d slots put it at %d",
				name, pos, it.ID, len(st.ids), st.slots[it.ID])
			return
		}
	}
	if len(items) != len(st.ids) {
		t.Errorf("%s: base and delta hold %d items, want %d", name, len(items), len(st.ids))
	}
}

// treeItems returns every item of the index by position — the base's in
// leaf order, then the delta's — each with its point.
func treeItems(t testing.TB, ix *Index) []rtree.Item {
	t.Helper()
	var items []rtree.Item
	if err := ix.base.VisitLeaves(func(it rtree.Item) { items = append(items, it) }); err != nil {
		t.Fatal(err)
	}
	if len(items) != ix.base.Len() {
		t.Fatalf("the base tree's leaves hold %d items, its Len is %d", len(items), ix.base.Len())
	}
	for i := range ix.delta.Len() {
		items = append(items, ix.delta.Item(i))
	}
	return items
}

// packOrder returns, by id, the leaf order of the STR pack of the index's
// records taken in slot order, each with the feature vector of its series:
// the tree a repack of the records must build.
func packOrder(t testing.TB, ix *Index) []int64 {
	t.Helper()
	r := ix.st.reader()
	defer r.release()
	var items []rtree.Item
	for slot, id := range ix.st.ids {
		x, err := r.series(slot)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, rtree.Item{ID: id, Point: ix.transform.Apply(x)})
	}
	var ids []int64
	tree := rtree.BulkLoad(testDim, rtree.Config{}, items) // one page's capacity, in both modes
	if err := tree.VisitLeaves(func(it rtree.Item) { ids = append(ids, it.ID) }); err != nil {
		t.Fatal(err)
	}
	return ids
}

// checkTreePoints asserts that every entry of the base and the delta
// carries the feature vector of the series its position's slot stores, as
// the tree stores it: each coordinate of a fresh transform.Apply rounded to
// float32, once. The tree and the delta are the only owner of the vectors:
// repackLive reads them back from there instead of recomputing them.
func checkTreePoints(t testing.TB, name string, ix *Index) {
	t.Helper()
	r := ix.st.reader()
	defer r.release()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for slot, it := range treeItems(t, ix) {
		x, err := r.series(slot)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ix.transform.Apply(x)
		for d, v := range want {
			want[d] = float64(float32(v))
		}
		if !slices.EqualFunc(it.Point, want, same) {
			t.Fatalf("%s: item %d (slot %d) carries %v; its series transforms to %v", name, it.ID, slot, it.Point, want)
		}
	}
}

// TestSlotsFollowLeafOrder: slot = position, the rank in the R*-tree's leaf
// order, after every way a tree is packed — bulk load and delta merge — in
// RAM and out-of-core, whatever order the entries came in.
func TestSlotsFollowLeafOrder(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			cfg := Config{}
			if paged {
				cfg.Pager = tinySpace(t)
			}
			r := rand.New(rand.NewSource(1801))
			entries := make([]Entry, 700)
			for i, id := range r.Perm(len(entries)) {
				entries[i] = Entry{ID: int64(id), Series: randomWalk(r, testN)}
			}
			ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			checkLeafOrder(t, "after bulk load", ix)

			for i := 0; i < 90; i++ {
				if err := ix.Add(int64(1000+i), randomWalk(r, testN)); err != nil {
					t.Fatal(err)
				}
			}
			checkLeafOrder(t, "with a delta tail", ix)
			if err := ix.repackLive(); err != nil {
				t.Fatal(err)
			}
			if ix.delta.Len() != 0 || ix.base.Len() != 790 {
				t.Fatalf("merge left delta=%d base=%d", ix.delta.Len(), ix.base.Len())
			}
			checkLeafOrder(t, "after delta merge", ix)
		})
	}
}

// TestBulkLoadIgnoresInputOrder: the order entries arrive in decides nothing
// — not the tree, not the slots, so not a single counter. BulkLoad over a
// corpus and over a shuffle of it answer kNN and range queries with the same
// matches and the same QueryStats; out-of-core, from a cold pool, that
// includes the real page reads.
func TestBulkLoadIgnoresInputOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1802))
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), Series: randomWalk(r, testN)}
	}
	shuffled := slices.Clone(entries)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ctx := context.Background()
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			var built [2]*Index
			for i, in := range [][]Entry{entries, shuffled} {
				cfg := Config{}
				if paged {
					cfg.Pager = pagedSpace(t, 16)
				}
				ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, in)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				built[i] = ix
			}
			for qi := 0; qi < 50; qi++ {
				q := randomWalk(r, testN)
				var ms [2][]Match
				var sts [2]QueryStats
				for i, ix := range built {
					if paged {
						if err := ix.sp.Pool().Reset(); err != nil {
							t.Fatal(err)
						}
					}
					var err error
					if qi%2 == 0 {
						ms[i], sts[i], err = ix.KNNCtx(ctx, q, 5, 0.1, Limits{})
					} else {
						ms[i], sts[i], err = ix.RangeQueryCtx(ctx, q, testN*0.12, 0.1, Limits{})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(ms[0], ms[1]) {
					t.Fatalf("query %d: matches %v, from the shuffled input %v", qi, ms[0], ms[1])
				}
				if sts[0] != sts[1] {
					t.Fatalf("query %d: stats %+v, from the shuffled input %+v", qi, sts[0], sts[1])
				}
				if paged && sts[0].PageAccesses == 0 {
					t.Fatalf("query %d: no page read from a cold pool: %+v", qi, sts[0])
				}
			}
		})
	}
}
