package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomPoint is a point of float32 coordinates, which a tree stores as
// given (its slack stays nil), so the linear scans below compare distances
// exactly; checkWidenedBound (TestLeafBoundsMatchBoxDist, FuzzLeafBounds)
// covers rounded ones.
func randomPoint(r *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = float64(float32(r.Float64() * 100))
	}
	return p
}

// stored is p as a tree stores it: float32 coordinates.
func stored(p ...float64) []uint32 {
	e := NewEntries(len(p))
	e.Append(0, p)
	return e.point(0)
}

func buildRandomTree(r *rand.Rand, n, dim int, cfg Config) (*Tree, [][]float64) {
	items := make([]Item, n)
	points := make([][]float64, n)
	for i := range items {
		points[i] = randomPoint(r, dim)
		items[i] = Item{ID: int64(i), Point: points[i]}
	}
	return BulkLoad(dim, cfg, items), points
}

// rangeIDs is the set of ids a range search around point p finds.
func rangeIDs(tr *Tree, p []float64, radius float64) map[int64]bool {
	got := map[int64]bool{}
	for _, it := range tr.RangeSearchRectInto(PointRect(p), radius, nil, nil) {
		got[it.ID] = true
	}
	return got
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestRectBasics(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{2, 3}}
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
	if r.boxDist(stored(1, 1)) != 0 || r.boxDist(stored(3, 1)) == 0 {
		t.Error("point inside / outside wrong")
	}
	if d := r.boxDist(stored(3, 1)); d != 1 {
		t.Errorf("boxDist = %v, SquaredMinDist is 1", d)
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if d := r.SquaredMinDist([]float64{0.5, 0.5}); d != 0 {
		t.Errorf("inside: %v", d)
	}
	if d := r.SquaredMinDist([]float64{2, 0.5}); d != 1 {
		t.Errorf("right: %v", d)
	}
	if d := r.SquaredMinDist([]float64{2, 2}); d != 2 {
		t.Errorf("corner: %v", d)
	}
	s := Rect{Lo: []float64{3, 0}, Hi: []float64{4, 1}}
	if d := r.SquaredMinDistRect(s); d != 4 {
		t.Errorf("rect-rect: %v", d)
	}
	if d := r.SquaredMinDistRect(r); d != 0 {
		t.Errorf("self: %v", d)
	}
	b := Rect{Lo: []float64{0.5, 0.5}, Hi: []float64{3, 3}}
	if d := r.SquaredMinDistRect(b); d != 0 {
		t.Errorf("overlapping rects: %v", d)
	}
}

// TestTreeInsertAndLen: the benchmark's Insert shim, into an empty tree and
// into a packed one — every inserted point is counted and is found by a range
// search, as is every packed one.
func TestTreeInsertAndLen(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, packed := range []int{0, 300} {
		tr, points := buildRandomTree(r, packed, 2, Config{MaxEntries: 8})
		for i := packed; i < packed+100; i++ {
			points = append(points, randomPoint(r, 2))
			tr.Insert(int64(i), points[i])
		}
		if tr.Len() != packed+100 {
			t.Errorf("%d packed: Len = %d", packed, tr.Len())
		}
		for id, p := range points {
			if !rangeIDs(tr, p, 0)[int64(id)] {
				t.Fatalf("%d packed: point %d not found", packed, id)
			}
		}
	}
}

func TestTreeVisitFindsAll(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, _ := buildRandomTree(r, 500, 3, Config{MaxEntries: 10})
	seen := map[int64]bool{}
	if err := tr.VisitLeaves(func(it Item) { seen[it.ID] = true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 500 {
		t.Errorf("Visit found %d items", len(seen))
	}
}

func TestRangeSearchMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr, points := buildRandomTree(r, 1000, 4, Config{MaxEntries: 16})
	for trial := 0; trial < 20; trial++ {
		q := randomPoint(r, 4)
		radius := 5 + r.Float64()*40
		got := tr.RangeSearchRectInto(PointRect(q), radius, nil, nil)
		gotIDs := map[int64]bool{}
		for _, it := range got {
			gotIDs[it.ID] = true
		}
		count := 0
		for id, p := range points {
			if euclid(q, p) <= radius {
				count++
				if !gotIDs[int64(id)] {
					t.Fatalf("missing id %d at dist %v radius %v", id, euclid(q, p), radius)
				}
			}
		}
		if count != len(got) {
			t.Fatalf("got %d results, want %d", len(got), count)
		}
	}
}

func TestRangeSearchRectMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr, points := buildRandomTree(r, 800, 3, Config{MaxEntries: 12})
	for trial := 0; trial < 20; trial++ {
		lo := randomPoint(r, 3)
		hi := make([]float64, 3)
		for i := range hi {
			hi[i] = lo[i] + r.Float64()*20
		}
		q := Rect{Lo: lo, Hi: hi}
		radius := r.Float64() * 15
		got := tr.RangeSearchRectInto(q, radius, nil, nil)
		gotIDs := map[int64]bool{}
		for _, it := range got {
			gotIDs[it.ID] = true
		}
		count := 0
		for id, p := range points {
			if math.Sqrt(q.SquaredMinDist(p)) <= radius {
				count++
				if !gotIDs[int64(id)] {
					t.Fatalf("missing id %d", id)
				}
			}
		}
		if count != len(got) {
			t.Fatalf("got %d, want %d", len(got), count)
		}
	}
}

// pull takes up to k neighbours from an unbounded traversal and closes it.
func pull(tb testing.TB, it NNIter, k int) []Neighbor {
	tb.Helper()
	defer it.Close()
	var out []Neighbor
	for len(out) < k {
		nb, ok := it.Next(math.Inf(1))
		if !ok {
			break
		}
		out = append(out, nb)
	}
	if err := it.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestKNNMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr, points := buildRandomTree(r, 600, 3, Config{MaxEntries: 10})
	for trial := 0; trial < 10; trial++ {
		q := randomPoint(r, 3)
		k := 1 + r.Intn(20)
		got := pull(t, tr.NNIter(PointRect(q), nil), k)
		if len(got) != k {
			t.Fatalf("got %d neighbors, want %d", len(got), k)
		}
		dists := make([]float64, len(points))
		for i, p := range points {
			dists[i] = euclid(q, p)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("neighbor %d dist %v, want %v", i, nb.Dist, dists[i])
			}
		}
		// Ascending order.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("neighbors not sorted")
			}
		}
	}
}

func TestIncrementalNNStops(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr, _ := buildRandomTree(r, 300, 2, Config{MaxEntries: 8})
	var st Stats
	it := tr.NNIter(PointRect([]float64{50, 50}), &st)
	defer it.Close()
	for i := 0; i < 5; i++ {
		if _, ok := it.Next(math.Inf(1)); !ok {
			t.Fatalf("stream ended after %d of 300 items", i)
		}
	}
	// Pulling five neighbours must not have ranked the whole tree.
	if st.LeafHits != 5 || st.FrontierPushes >= 300 {
		t.Errorf("5 pulls: %d leaf hits, %d frontier pushes", st.LeafHits, st.FrontierPushes)
	}
}

func TestKNNMoreThanSize(t *testing.T) {
	var items []Item
	for i := 0; i < 3; i++ {
		items = append(items, Item{ID: int64(i), Point: []float64{float64(i), 0}})
	}
	tr := BulkLoad(2, Config{MaxEntries: 4}, items)
	got := pull(t, tr.NNIter(PointRect([]float64{0, 0}), nil), 10)
	if len(got) != 3 {
		t.Errorf("got %d, want all 3", len(got))
	}
}

func TestEmptyTreeSearches(t *testing.T) {
	tr := New(2, Config{})
	if got := tr.RangeSearchRectInto(PointRect([]float64{0, 0}), 10, nil, nil); len(got) != 0 {
		t.Error("range on empty tree")
	}
	if got := pull(t, tr.NNIter(PointRect([]float64{0, 0}), nil), 3); len(got) != 0 {
		t.Error("knn on empty tree")
	}
}

func TestStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tr, _ := buildRandomTree(r, 2000, 4, Config{MaxEntries: 16})
	var st Stats
	tr.RangeSearchRectInto(PointRect(randomPoint(r, 4)), 10, nil, &st)
	if st.NodeAccesses == 0 {
		t.Error("no node accesses recorded")
	}
	// A tiny-radius search must access far fewer nodes than a full scan.
	var small, large Stats
	tr.RangeSearchRectInto(PointRect(randomPoint(r, 4)), 1, nil, &small)
	tr.RangeSearchRectInto(PointRect(randomPoint(r, 4)), 1000, nil, &large)
	if small.NodeAccesses >= large.NodeAccesses {
		t.Errorf("small-radius accesses %d >= full-scan accesses %d", small.NodeAccesses, large.NodeAccesses)
	}
}

func TestInvariantsManyConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, cfg := range []Config{
		{MaxEntries: 4},
		{MaxEntries: 8},
		{MaxEntries: 50},
		{MaxEntries: 10},
		{}, // derived from page size
	} {
		tr, _ := buildRandomTree(r, 700, 3, cfg)
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
		if tr.Len() != 700 {
			t.Errorf("cfg %+v: len %d", cfg, tr.Len())
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	var items []Item
	for i := 0; i < 50; i++ {
		items = append(items, Item{ID: int64(i), Point: []float64{1, 1}})
	}
	tr := BulkLoad(2, Config{MaxEntries: 4}, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.RangeSearchRectInto(PointRect([]float64{1, 1}), 0, nil, nil)
	if len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
}

// Property: every packed point is findable with a zero-radius search.
func TestPropAllPointsFindable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		dim := 1 + r.Intn(5)
		tr, points := buildRandomTree(r, n, dim, Config{MaxEntries: 4 + r.Intn(20)})
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		for id, p := range points {
			if !rangeIDs(tr, p, 1e-9)[int64(id)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnMismatchedDims(t *testing.T) {
	tr := New(3, Config{})
	cases := []func(){
		func() { tr.Insert(0, []float64{1, 2}) },
		func() { tr.RangeSearchRectInto(PointRect([]float64{1}), 5, nil, nil) },
		func() { tr.NNIter(PointRect([]float64{1}), nil) },
		func() { New(0, Config{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkRangeSearch50k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr, _ := buildRandomTree(r, 50000, 8, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RangeSearchRectInto(PointRect(randomPoint(r, 8)), 20, nil, nil)
	}
}

// CheckInvariants validates an in-RAM tree's structural invariants (for
// tests): MBR containment, entry counts, uniform leaf depth. It returns the
// first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	return t.check(t.root, nil, true)
}

func (t *Tree) check(n *node, parentRect *Rect, isRoot bool) error {
	count := len(n.rects)
	if n.leaf {
		if count != 0 || n.ents.dim != t.dim || len(n.ents.w)%(t.dim+2) != 0 {
			return errf("leaf has %d rects and %d words at dim %d", count, len(n.ents.w), n.ents.dim)
		}
		if n.level != 0 {
			return errf("leaf at level %d", n.level)
		}
		count = n.ents.Len()
	} else {
		if len(n.children) != count {
			return errf("internal node has %d rects but %d children", count, len(n.children))
		}
	}
	if !isRoot {
		if count < t.minEntries {
			return errf("underfull node: %d < %d", count, t.minEntries)
		}
	}
	if count > t.maxEntries {
		return errf("overfull node: %d > %d", count, t.maxEntries)
	}
	if parentRect != nil && count > 0 {
		m := n.mbr()
		for i := range m.Lo {
			if m.Lo[i] < parentRect.Lo[i]-1e-9 || m.Hi[i] > parentRect.Hi[i]+1e-9 {
				return errf("child MBR escapes parent rect")
			}
		}
	}
	if !n.leaf {
		for i, c := range n.children {
			if c.level != n.level-1 {
				return errf("child level %d under node level %d", c.level, n.level)
			}
			r := n.rects[i]
			if err := t.check(c, &r, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("rtree: "+format, args...)
}

// mbr computes the bounding rectangle of all entries of n: its points, or
// its children's boxes.
func (n *node) mbr() Rect {
	if n.leaf {
		p := make([]float64, n.ents.dim)
		out := PointRect(n.ents.widened(p, 0)).Clone()
		for i := 1; i < n.ents.Len(); i++ {
			out.unionInPlace(PointRect(n.ents.widened(p, i)))
		}
		return out
	}
	out := n.rects[0].Clone()
	for _, r := range n.rects[1:] {
		out.unionInPlace(r)
	}
	return out
}
