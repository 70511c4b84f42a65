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

// checkLeafOrder asserts the layout invariant of a bulk-built structure:
// walking the base tree's leaves meets slots 0, 1, 2, …, and every live one
// of them belongs to the item that carries it (ids[slot] is the item's id,
// slots[id] maps back). The base is the paged base out-of-core — immutable,
// so the invariant holds between rebuilds too, tombstones included — and the
// whole RAM tree otherwise, where it holds right after a rebuild only.
func checkLeafOrder(t testing.TB, name string, ix *Index) {
	t.Helper()
	st := &ix.st
	rank, first := 0, ""
	visit := func(it rtree.Item) {
		slot := int(it.Slot)
		switch {
		case first != "":
		case slot != rank || slot >= len(st.ids):
			first = fmt.Sprintf("leaf item %d (id %d) carries slot %d of %d", rank, it.ID, slot, len(st.ids))
		case st.alive[slot] && (st.ids[slot] != it.ID || st.slots[it.ID] != it.Slot):
			first = fmt.Sprintf("slot %d holds id %d (slots[%d] = %d), its tree item is id %d",
				slot, st.ids[slot], it.ID, st.slots[it.ID], it.ID)
		}
		rank++
	}
	want := len(st.ids)
	if ix.sp != nil {
		if ix.ptree == nil {
			return
		}
		if err := ix.ptree.VisitLeaves(visit); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want = ix.ptree.Len()
	} else {
		ix.tree.Visit(visit)
	}
	if first != "" {
		t.Errorf("%s: %s", name, first)
	}
	if rank != want {
		t.Errorf("%s: the base tree's leaves hold %d items, want %d", name, rank, want)
	}
}

// treeItems returns every item of the index's trees — the RAM tree or the
// paged delta, then the paged base — each with its point.
func treeItems(t testing.TB, ix *Index) []rtree.Item {
	t.Helper()
	var items []rtree.Item
	keep := func(it rtree.Item) { items = append(items, it) }
	ix.tree.Visit(keep)
	if ix.ptree != nil {
		if err := ix.ptree.VisitLeaves(keep); err != nil {
			t.Fatal(err)
		}
	}
	return items
}

// packOrder returns, by id, the leaf order of the STR pack of the index's
// live records taken in slot order, each with the feature vector of its
// series: the tree a repack of the live records must build.
func packOrder(t testing.TB, ix *Index) []int64 {
	t.Helper()
	r := ix.st.reader()
	defer r.release()
	var items []rtree.Item
	for slot, id := range ix.st.ids {
		if !ix.st.alive[slot] {
			continue
		}
		x, err := r.series(slot)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, rtree.Item{ID: id, Slot: int32(slot), Point: ix.transform.Apply(x)})
	}
	var cfg rtree.Config
	if ix.sp != nil {
		cfg.MaxEntries = rtree.PageCapacity(testDim, ix.sp.PageSize())
	}
	var ids []int64
	rtree.BulkLoad(testDim, cfg, items).Visit(func(it rtree.Item) { ids = append(ids, it.ID) })
	return ids
}

// checkTreePoints asserts that every item of every tree carries the feature
// vector of the series its slot stores, Float64bits-equal to a fresh
// transform.Apply — tombstoned items too, whose series stays in its slot
// until a repack. The trees are the only owner of the vectors: repackLive
// reads them back from there instead of recomputing them.
func checkTreePoints(t testing.TB, name string, ix *Index) {
	t.Helper()
	r := ix.st.reader()
	defer r.release()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, it := range treeItems(t, ix) {
		x, err := r.series(int(it.Slot))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := ix.transform.Apply(x); !slices.EqualFunc(it.Point, want, same) {
			t.Fatalf("%s: item %d (slot %d) carries %v; its series transforms to %v", name, it.ID, it.Slot, it.Point, want)
		}
	}
}

// TestSlotsFollowLeafOrder: slot = rank in the R*-tree's leaf order after
// every way a tree is packed — bulk load, paged delta merge, tombstone
// compaction — in RAM and out-of-core, whatever order the entries came in.
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
			if paged {
				checkLeafOrder(t, "with a delta tail", ix)
				if err := ix.repackLive(); err != nil {
					t.Fatal(err)
				}
				if ix.tree.Len() != 0 || ix.ptree.Len() != 790 {
					t.Fatalf("merge left delta=%d base=%d", ix.tree.Len(), ix.ptree.Len())
				}
				checkLeafOrder(t, "after delta merge", ix)
			}

			// Remove until the tombstones force a compaction; the invariant
			// holds on the structure that removal leaves behind.
			for i := 0; ix.compactions == 0; i++ {
				if i == len(entries) {
					t.Fatal("removing every bulk-loaded entry never compacted")
				}
				if !ix.Remove(entries[i].ID) {
					t.Fatalf("remove %d: not present", entries[i].ID)
				}
			}
			if ix.st.dead != 0 || len(ix.st.ids) != ix.Len() {
				t.Fatalf("compaction left %d tombstones in %d slots for %d series", ix.st.dead, len(ix.st.ids), ix.Len())
			}
			checkLeafOrder(t, "after compaction", ix)
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
