package rtree

import (
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
	tr.Visit(func(it Item) { seen[it.ID] = true })
	if len(seen) != 1000 {
		t.Errorf("Visit found %d", len(seen))
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	tr := BulkLoad(2, Config{}, nil)
	if tr.Len() != 0 {
		t.Error("empty bulk load")
	}
	tr.Insert(1, []float64{1, 2}) // still usable
	if tr.Len() != 1 {
		t.Error("insert after empty bulk load")
	}

	one := BulkLoad(2, Config{MaxEntries: 4}, []Item{{ID: 9, Point: []float64{3, 4}}})
	if one.Len() != 1 {
		t.Error("single-item bulk load")
	}
	if got := one.RangeSearch([]float64{3, 4}, 0); len(got) != 1 || got[0].ID != 9 {
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
		got := map[int64]bool{}
		for _, it := range tr.RangeSearch(q, radius) {
			got[it.ID] = true
		}
		for _, it := range items {
			want := euclid(q, it.Point) <= radius
			if got[it.ID] != want {
				t.Fatalf("id %d: got %v want %v", it.ID, got[it.ID], want)
			}
		}
	}
}

func TestBulkLoadDynamicAfterwards(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	items := bulkItems(r, 500, 3)
	tr := BulkLoad(3, Config{MaxEntries: 8}, items)
	// Insert more.
	for i := 500; i < 800; i++ {
		tr.Insert(int64(i), randomPoint(r, 3))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 800 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBulkLoadBetterClusteringThanInserts(t *testing.T) {
	// STR packing should need no more page accesses than incremental
	// insertion for the same workload (usually far fewer).
	r := rand.New(rand.NewSource(124))
	const n, dim = 20000, 8
	items := bulkItems(r, n, dim)
	packed := BulkLoad(dim, Config{}, items)
	grown := New(dim, Config{})
	for _, it := range items {
		grown.Insert(it.ID, it.Point)
	}
	var packedPages, grownPages int
	for trial := 0; trial < 30; trial++ {
		q := randomPoint(r, dim)
		var ps, gs Stats
		a := packed.RangeSearchRectStats(PointRect(q), 25, &ps)
		packedPages += ps.NodeAccesses
		b := grown.RangeSearchRectStats(PointRect(q), 25, &gs)
		grownPages += gs.NodeAccesses
		if len(a) != len(b) {
			t.Fatalf("result mismatch: %d vs %d", len(a), len(b))
		}
	}
	if packedPages > grownPages {
		t.Errorf("STR pages %d > incremental pages %d", packedPages, grownPages)
	}
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
			found := false
			for _, hit := range tr.RangeSearch(it.Point, 1e-12) {
				if hit.ID == it.ID {
					found = true
					break
				}
			}
			if !found {
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

func BenchmarkBulkLoadVsInsert50k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := bulkItems(r, 50000, 8)
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BulkLoad(8, Config{}, items)
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New(8, Config{})
			for _, it := range items {
				tr.Insert(it.ID, it.Point)
			}
		}
	})
}
