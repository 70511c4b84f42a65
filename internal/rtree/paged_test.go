package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"warping/internal/pager"
	"warping/internal/store"
)

func testSpace(t *testing.T, pageSize, poolPages int) *pager.Space {
	t.Helper()
	sp, err := pager.Open(pager.Config{PageSize: pageSize, PoolPages: poolPages, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

func randItems(rng *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		items[i] = Item{ID: int64(i + 1), Point: p}
	}
	return items
}

// buildPaged bulk-loads items at page capacity and serializes to sp.
func buildPaged(t *testing.T, sp *pager.Space, dim int, items []Item) (*Tree, *Tree) {
	t.Helper()
	capacity := PageCapacity(dim, sp.PageSize())
	ram := BulkLoad(dim, Config{MaxEntries: capacity}, items)
	pt, err := WritePaged(ram, sp)
	if err != nil {
		t.Fatal(err)
	}
	return ram, pt
}

// TestPagedRangeMatchesRAM compares paged range search against the in-RAM
// tree it was written from, under a pool far smaller than the tree: one
// walker reads both, so the items come back in the same order at the same
// logical cost.
func TestPagedRangeMatchesRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim, n = 6, 3000
	sp := testSpace(t, 512, 8)
	items := randItems(rng, n, dim)
	ram, pt := buildPaged(t, sp, dim, items)

	for qi := 0; qi < 50; qi++ {
		q := PointRect(randItems(rng, 1, dim)[0].Point)
		radius := 2 + rng.Float64()*15
		var ramSt, pagedSt Stats
		want := ram.RangeSearchRectInto(q, radius, nil, &ramSt)
		got, err := pt.RangeSearchInto(q, radius, nil, &pagedSt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %d: %d results RAM, %d paged", qi, len(want), len(got))
		}
		for i, w := range want {
			if got[i].ID != w.ID {
				t.Fatalf("query %d pos %d: RAM id %d, paged id %d", qi, i, w.ID, got[i].ID)
			}
		}
		if pagedSt.NodeAccesses != ramSt.NodeAccesses || pagedSt.LeafHits != ramSt.LeafHits {
			t.Fatalf("query %d: RAM stats %+v, paged %+v", qi, ramSt, pagedSt)
		}
	}
	if st := sp.Stats(); st.Misses == 0 {
		t.Fatalf("expected pool misses with 8-frame pool over %d items: %+v", n, st)
	}
}

// TestPagedNNMatchesRAM compares the NN stream over the paged tree against
// the stream over the in-RAM tree it was written from: the same neighbours
// in the same order, ties included, at the same logical cost — unbounded,
// and under a bound that shrinks as a kNN's cutoff does (the distance of the
// k-th unbounded neighbour at first, one rank nearer every second pull),
// where both must follow the unbounded stream up to the bound and end there.
func TestPagedNNMatchesRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim, n, k = 5, 2000, 64
	sp := testSpace(t, 512, 8)
	items := randItems(rng, n, dim)
	ram, pt := buildPaged(t, sp, dim, items)

	for qi := 0; qi < 20; qi++ {
		q := PointRect(randItems(rng, 1, dim)[0].Point)
		var free []Neighbor // the unbounded stream's first k
		for _, shrinking := range []bool{false, true} {
			var ramSt, pagedSt Stats
			ramIt := ram.NNIter(q, &ramSt)
			pagedIt := pt.NNIter(q, &pagedSt)
			bound := math.Inf(1)
			for i := 0; i < k; i++ {
				if shrinking {
					bound = free[k-1-i/2].Dist
				}
				want, wantOK := ramIt.Next(bound)
				got, gotOK := pagedIt.Next(bound)
				if wantOK != gotOK || got != want {
					t.Fatalf("query %d shrinking=%v pos %d: RAM %+v %v, paged %+v %v", qi, shrinking, i, want, wantOK, got, gotOK)
				}
				if !shrinking {
					free = append(free, want)
					continue
				}
				if within := free[i].Dist <= bound; wantOK != within || (wantOK && want.Dist != free[i].Dist) {
					t.Fatalf("query %d pos %d bound %v: bounded stream gave %+v %v, unbounded %+v", qi, i, bound, want, wantOK, free[i])
				}
				if !wantOK {
					break
				}
			}
			if err := pagedIt.Err(); err != nil {
				t.Fatal(err)
			}
			ramIt.Close()
			pagedIt.Close()
			if pagedSt.PageMisses = 0; pagedSt != ramSt {
				t.Fatalf("query %d shrinking=%v: RAM stats %+v, paged %+v", qi, shrinking, ramSt, pagedSt)
			}
		}
	}
}

// TestPagedVisitLeaves proves serialization kept every item exactly once,
// with its point, and that the points VisitLeaves hands out are copies: the
// walk cycles the tree's 250 leaves through 8 frames, so a view into a frame
// would have been overwritten by the time it is checked.
func TestPagedVisitLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, n = 4, 1500
	sp := testSpace(t, 512, 8)
	items := randItems(rng, n, dim)
	_, pt := buildPaged(t, sp, dim, items)
	seen := make(map[int64]Item)
	if err := pt.VisitLeaves(func(it Item) { seen[it.ID] = it }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("visited %d items, want %d", len(seen), n)
	}
	for _, it := range items {
		s, ok := seen[it.ID]
		if !ok || !slices.Equal(s.Point, it.Point) {
			t.Fatalf("item %d point %v: got %+v ok=%v", it.ID, it.Point, s, ok)
		}
	}
}

// TestPagedWritesLeavesOnly: internal nodes are heap nodes from build time
// on and never pinned, so a paged base's file holds exactly one page per
// leaf, leaf r (in leaf order) on page r.
func TestPagedWritesLeavesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const dim, n = 4, 1500
	sp := testSpace(t, 512, 8)
	_, pt := buildPaged(t, sp, dim, randItems(rng, n, dim))
	if pt.root.level < 2 {
		t.Fatalf("root level %d: the tree needs internal levels below the root", pt.root.level)
	}
	leaves := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if !nd.leaf {
			for _, c := range nd.children {
				walk(c)
			}
			return
		}
		if nd.page != uint64(leaves) {
			t.Fatalf("leaf %d is on page %d", leaves, nd.page)
		}
		leaves++
	}
	walk(pt.root)
	if got := pt.f.NumPages(); got != uint64(leaves) {
		t.Fatalf("the file holds %d pages for %d leaves", got, leaves)
	}
}

// TestWritePagedRefusesAPageTooSmallForALeaf: PageCapacity never goes
// below 4, and at dimension 8 a 256-byte page (30 payload words, 9 an
// entry) holds 3 entries, so a tree packed at that capacity is refused with
// an error before a page is written, empty or not.
func TestWritePagedRefusesAPageTooSmallForALeaf(t *testing.T) {
	const dim = 8
	sp := testSpace(t, 256, 8)
	m := PageCapacity(dim, sp.PageSize())
	for _, n := range []int{0, 3, 50} {
		tr := BulkLoad(dim, Config{MaxEntries: m}, randItems(rand.New(rand.NewSource(int64(n))), n, dim))
		if pt, err := WritePaged(tr, sp); err == nil {
			t.Fatalf("%d items: a leaf of %d entries written to a %d-byte page (%d pages)", n, m, sp.PageSize(), pt.f.NumPages())
		}
	}
}

// TestPageCapacityFillsALeafPage: at every page size FitPageSize produces
// and every dimension from 1 to 32, a leaf of PageCapacity entries is
// written to one page and reads back whole, and one entry more would not
// fit the page's payload (a meta word, then dim + 1 words an entry), so M is
// all a leaf page holds. Where not even 4 entries fit, M is the floor of 4
// and WritePaged refuses it.
func TestPageCapacityFillsALeafPage(t *testing.T) {
	sizes := map[int]bool{}
	for _, cfg := range []int{0, 512, 1024, 4096} {
		for _, w := range []int{1, 128, 1022, 1023} {
			sizes[(pager.Config{PageSize: cfg}).FitPageSize(w)] = true
		}
	}
	rng := rand.New(rand.NewSource(53))
	for ps := range sizes {
		sp := testSpace(t, ps, 8)
		payload := (ps - store.PageHeaderSize) / 8
		for dim := 1; dim <= 32; dim++ {
			m := PageCapacity(dim, ps)
			pt, err := WritePaged(BulkLoad(dim, Config{MaxEntries: m}, randItems(rng, m, dim)), sp)
			if 1+4*(dim+1) > payload {
				if m != 4 || err == nil {
					t.Fatalf("page %d, dim %d: M = %d, a leaf of it written (%v)", ps, dim, m, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("page %d, dim %d: a leaf of M = %d entries: %v", ps, dim, m, err)
			}
			n := 0
			if err := pt.VisitLeaves(func(Item) { n++ }); err != nil || n != m || pt.f.NumPages() != 1 {
				t.Fatalf("page %d, dim %d: %d of %d entries read back from %d pages (%v)", ps, dim, n, m, pt.f.NumPages(), err)
			}
			if err := pt.Close(sp); err != nil {
				t.Fatal(err)
			}
			if need := 1 + (m+1)*(dim+1); need <= payload {
				t.Fatalf("page %d, dim %d: M + 1 = %d entries take %d of the page's %d payload words", ps, dim, m+1, need, payload)
			}
		}
	}
}

// TestOneLeafLayout: a leaf entry has one layout — its point, then its id —
// and one position. Over random trees, at dimensions 1–16, of one leaf and
// of several, on pages of 512 B to 8 KiB: every RAM leaf's entry words are
// its page's payload after the meta word, word for word, and its stub keeps
// its first position; the item VisitLeaves yields r-th surfaces from NNIter
// at position r, in RAM and paged alike; and the i-th entry given to Push
// surfaces at position Len()+i.
func TestOneLeafLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, ps := range []int{512, 1024, 2048, 4096, 8192} {
		sp := testSpace(t, ps, 8)
		for trial := 0; trial < 8; trial++ {
			dim := 1 + rng.Intn(16)
			m := PageCapacity(dim, ps)
			if 1+m*(dim+1) > payloadWords(ps) {
				continue // not even 4 entries fit: WritePaged refuses the tree
			}
			n := 1 + rng.Intn(m) // one leaf
			if trial%2 == 1 {
				n = m + 1 + rng.Intn(6*m) // several
			}
			ram, pt := buildPaged(t, sp, dim, randItems(rng, n, dim))
			var ramLeaves, pagedLeaves []*node
			leaves(ram.root, func(l *node) { ramLeaves = append(ramLeaves, l) })
			leaves(pt.root, func(l *node) { pagedLeaves = append(pagedLeaves, l) })
			if len(ramLeaves) != len(pagedLeaves) || (trial%2 == 1) != (len(ramLeaves) > 1) {
				t.Fatalf("page %d, dim %d, %d items: %d RAM leaves, %d paged", ps, dim, n, len(ramLeaves), len(pagedLeaves))
			}
			for r, l := range ramLeaves {
				fr, _, err := sp.Pool().Pin(pt.f, pagedLeaves[r].page)
				if err != nil {
					t.Fatal(err)
				}
				wd := fr.Words()
				_, _, count, _ := decodeMeta(wd[0])
				same := count == l.ents.Len() && pagedLeaves[r].first == l.first
				for j, w := range l.ents.w {
					same = same && math.Float64bits(w) == wd[1+j]
				}
				sp.Pool().Unpin(fr)
				if !same {
					t.Fatalf("page %d, dim %d: leaf %d (first %d, %d entries) differs from its page (first %d, %d entries)",
						ps, dim, r, l.first, l.ents.Len(), pagedLeaves[r].first, count)
				}
			}

			var order []int64 // the tree's ids by position, then the delta's
			if err := ram.VisitLeaves(func(it Item) { order = append(order, it.ID) }); err != nil {
				t.Fatal(err)
			}
			delta := NewEntries(dim)
			for i := range 1 + rng.Intn(2*m) {
				delta.Append(int64(n+1+i), randomPoint(rng, dim))
				order = append(order, int64(n+1+i))
			}
			for _, tr := range []*Tree{ram, pt} {
				it := tr.NNIter(PointRect(randomPoint(rng, dim)), nil)
				it.Push(delta, math.Inf(1))
				got := pull(t, it, math.MaxInt)
				seen := make(map[int32]bool)
				for _, nb := range got {
					if nb.Slot < 0 || int(nb.Slot) >= len(order) || order[nb.Slot] != nb.ID || seen[nb.Slot] {
						t.Fatalf("page %d, dim %d, paged=%v: item %d surfaced at position %d of %d", ps, dim, tr == pt, nb.ID, nb.Slot, len(order))
					}
					seen[nb.Slot] = true
				}
				if len(got) != len(order) {
					t.Fatalf("page %d, dim %d, paged=%v: %d of %d items surfaced", ps, dim, tr == pt, len(got), len(order))
				}
			}
		}
	}
}

// TestPagedEmptyAndTiny covers the degenerate shapes: empty tree and a
// single root leaf.
func TestPagedEmptyAndTiny(t *testing.T) {
	sp := testSpace(t, 512, 8)
	const dim = 3
	_, pt := buildPaged(t, sp, dim, nil)
	out, err := pt.RangeSearchInto(PointRect([]float64{0, 0, 0}), 100, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty tree range: %v %v", out, err)
	}
	it := pt.NNIter(PointRect([]float64{0, 0, 0}), nil)
	if _, ok := it.Next(math.Inf(1)); ok {
		t.Fatal("empty tree yielded a neighbor")
	}

	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 3, dim)
	_, tiny := buildPaged(t, sp, dim, items)
	if !tiny.root.leaf {
		t.Fatalf("3-item tree's root is at level %d, not a leaf", tiny.root.level)
	}
	out, err = tiny.RangeSearchInto(PointRect(items[0].Point), 0.001, nil, nil)
	if err != nil || len(out) != 1 || out[0].ID != items[0].ID {
		t.Fatalf("tiny range: %v %v", out, err)
	}
	it = tiny.NNIter(PointRect(items[1].Point), nil)
	nb, ok := it.Next(math.Inf(1))
	if !ok || nb.ID != items[1].ID || nb.Dist != 0 {
		t.Fatalf("tiny NN: %+v %v", nb, ok)
	}
}

// TestPagedAccounting checks logical vs real accounting: a warm pool large
// enough for the whole tree serves repeats with zero misses while logical
// node accesses keep counting.
func TestPagedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim, n = 4, 800
	sp := testSpace(t, 512, 256) // whole tree fits the pool
	items := randItems(rng, n, dim)
	_, pt := buildPaged(t, sp, dim, items)
	q := PointRect(items[0].Point)

	var cold Stats
	if _, err := pt.RangeSearchInto(q, 5, nil, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.PageMisses == 0 {
		t.Fatal("the first query found leaves resident that only the build wrote")
	}
	// The build wrote the leaves outside the pool, so the first query read
	// them; a second identical query must be all hits.
	var warm Stats
	if _, err := pt.RangeSearchInto(q, 5, nil, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.PageMisses != 0 {
		t.Fatalf("warm query missed %d pages", warm.PageMisses)
	}
	if warm.NodeAccesses == 0 || warm.NodeAccesses != cold.NodeAccesses {
		t.Fatalf("logical accounting diverged: cold %d warm %d", cold.NodeAccesses, warm.NodeAccesses)
	}

	// After a pool reset every leaf visit is a real miss.
	if err := sp.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
	var reset Stats
	if _, err := pt.RangeSearchInto(q, 5, nil, &reset); err != nil {
		t.Fatal(err)
	}
	if reset.PageMisses == 0 {
		t.Fatal("cold query after reset reported zero page misses")
	}
	if reset.PageMisses > reset.NodeAccesses {
		t.Fatalf("misses %d exceed node accesses %d", reset.PageMisses, reset.NodeAccesses)
	}
}

// TestPagedClose removes the file and its pool pages.
func TestPagedClose(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sp := testSpace(t, 512, 16)
	_, pt := buildPaged(t, sp, 4, randItems(rng, 500, 4))
	if err := pt.Close(sp); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Resident != 0 {
		t.Fatalf("resident pages after close: %+v", st)
	}
}
