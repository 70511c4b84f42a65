package rtree

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func bulkItems(r *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Point: randomPoint(r, dim)}
	}
	return items
}

func TestBulkLoadBasics(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	items := bulkItems(r, 1000, 4)
	tr := BulkLoad(4, Config{MaxEntries: 16}, items)
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	if err := tr.VisitLeaves(func(it Item) { seen[it.ID] = true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1000 {
		t.Errorf("Visit found %d", len(seen))
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	tr := BulkLoad(2, Config{}, nil)
	if tr.Len() != 0 || tr.root != nil {
		t.Error("empty bulk load")
	}
	var st Stats
	if got := tr.RangeSearchRectInto(PointRect([]float64{1, 2}), 10, nil, &st); len(got) != 0 || st.NodeAccesses != 0 {
		t.Errorf("empty tree: %d found, %d node accesses", len(got), st.NodeAccesses)
	}

	one := BulkLoad(2, Config{MaxEntries: 4}, []Item{{ID: 9, Point: []float64{3, 4}}})
	if one.Len() != 1 {
		t.Error("single-item bulk load")
	}
	if got := one.RangeSearchRectInto(PointRect([]float64{3, 4}), 0, nil, nil); len(got) != 1 || got[0].ID != 9 {
		t.Errorf("got %v", got)
	}
}

func TestBulkLoadSearchesMatchLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(122))
	items := bulkItems(r, 2000, 5)
	tr := BulkLoad(5, Config{MaxEntries: 20}, items)
	for trial := 0; trial < 15; trial++ {
		q := randomPoint(r, 5)
		radius := 5 + r.Float64()*40
		got := rangeIDs(tr, q, radius)
		for _, it := range items {
			want := euclid(q, it.Point) <= radius
			if got[it.ID] != want {
				t.Fatalf("id %d: got %v want %v", it.ID, got[it.ID], want)
			}
		}
	}
}

// TestBulkLoadDynamicAfterwards: a packed tree stays immutable, and what is
// added after the pack is a flat delta beside it, pushed onto the NN
// frontier, so the two answer exactly as a tree packed over all of it does —
// as a range search (the stream cut at the radius) and as the unbounded
// ranking. The delta's 300 items count as the 38 leaves of 8 they would
// fill.
func TestBulkLoadDynamicAfterwards(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	items := bulkItems(r, 800, 3)
	tr := BulkLoad(3, Config{MaxEntries: 8}, items[:500])
	all := BulkLoad(3, Config{MaxEntries: 8}, items)
	for trial := 0; trial < 10; trial++ {
		q := PointRect(randomPoint(r, 3))
		var treeSt, st Stats
		tr.RangeSearchRectInto(q, 20, nil, &treeSt)
		within := tr.NNIter(q, &st)
		within.Push(entriesOf(3, items[500:]), 20)
		var found []Neighbor
		for nb, ok := within.Next(20); ok; nb, ok = within.Next(20) {
			found = append(found, nb)
		}
		within.Close()
		if st.NodeAccesses != treeSt.NodeAccesses+38 || st.LeafHits != len(found) {
			t.Fatalf("trial %d: tree and delta counted %+v, the tree alone %+v, for %d found", trial, st, treeSt, len(found))
		}
		ids := map[int64]bool{}
		for _, nb := range found {
			ids[nb.ID] = true
		}
		if want := rangeIDs(all, q.Lo, 20); len(ids) != len(found) || !maps.Equal(ids, want) {
			t.Fatalf("trial %d: tree and delta found %d items, the whole pack %d", trial, len(found), len(want))
		}

		var pushSt Stats
		it := tr.NNIter(q, &pushSt)
		it.Push(entriesOf(3, items[500:]), math.Inf(1))
		if pushSt.NodeAccesses != 38 || pushSt.FrontierPushes != 300 {
			t.Fatalf("trial %d: Push counted %+v", trial, pushSt)
		}
		got, want := pull(t, it, 800), pull(t, all.NNIter(q, nil), 800)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d neighbours, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d pos %d: dist %v, want %v", trial, i, got[i].Dist, want[i].Dist)
			}
		}
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d: the packed tree changed", tr.Len())
	}
}

// entriesOf lays items out as a run of entries, in order.
func entriesOf(dim int, items []Item) Entries {
	es := NewEntries(dim)
	for _, it := range items {
		es.Append(it.ID, it.Point)
	}
	return es
}

func TestPropBulkLoadInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3000)
		dim := 1 + r.Intn(6)
		items := bulkItems(r, n, dim)
		tr := BulkLoad(dim, Config{MaxEntries: 4 + r.Intn(30)}, items)
		if tr.Len() != n {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		// Every item findable.
		for _, it := range items[:min(n, 50)] {
			if !rangeIDs(tr, it.Point, 1e-12)[it.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BulkLoad(3, Config{}, []Item{{ID: 1, Point: []float64{1, 2}}})
}

func BenchmarkBulkLoad50k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := bulkItems(r, 50000, 8)
	for i := 0; i < b.N; i++ {
		BulkLoad(8, Config{}, items)
	}
}
