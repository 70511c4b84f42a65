package rtree

import (
	"math"
	"slices"
	"sync"

	"warping/internal/pager"
)

// RangeSearchInto appends to dst (which may be nil) every item whose
// Euclidean distance to the query rectangle (e.g. a feature-space envelope
// box) is at most radius: the best-first walk of NNIter, cut at radius. It
// opens exactly the nodes whose MINDIST to the query is within radius, each
// counted as one page access into st (which may be nil), and a paged leaf's
// pin through the pool counts a miss when it read disk. Items come back in
// ascending distance, with nil Points. What was found before a page failed
// comes back with the error, so a pooled dst keeps its growth. Searches
// never mutate the tree, so any number may run concurrently as long as each
// query uses its own Stats.
func (t *Tree) RangeSearchInto(q Rect, radius float64, dst []Item, st *Stats) ([]Item, error) {
	it := t.NNIter(q, st)
	defer it.Close()
	for nb, ok := it.Next(radius); ok; nb, ok = it.Next(radius) {
		dst = append(dst, Item{ID: nb.ID, Slot: nb.Slot})
	}
	return dst, it.Err()
}

// RangeSearchRectInto is RangeSearchInto over an in-RAM tree, whose walk
// pins no page and so cannot fail.
func (t *Tree) RangeSearchRectInto(q Rect, radius float64, dst []Item, st *Stats) []Item {
	out, _ := t.RangeSearchInto(q, radius, dst, st)
	return out
}

// leavesOf returns how many leaves n items fill at the tree's capacity.
func (t *Tree) leavesOf(n int) int { return (n + t.maxEntries - 1) / t.maxEntries }

// leafView reads one leaf's entries in whichever form the leaf is held: a
// RAM leaf's items over its run of the tree's point block, or the float and
// word views of its pinned page. Either way the points lie stride floats
// apart in pts — dim in RAM, dim+2 on a page, whose entries carry id and
// slot between points — so a point is read, and a whole leaf handed to the
// distance kernel, the same way in both modes.
type leafView struct {
	items  []Item // RAM leaf; nil when reading a page
	fr     *pager.Frame
	pool   *pager.Pool
	wd     []uint64
	pts    []float64
	stride int
	dim    int
	count  int
}

// openLeaf counts the visit to leaf n of t and returns a view of its
// entries: n itself in RAM, the page n is a stub of in a paged tree. The
// view must be closed.
func openLeaf(n *node, t *Tree, st *Stats) (leafView, error) {
	if t.pool == nil {
		st.NodeAccesses++
		return leafView{items: n.items, pts: n.pts, stride: t.dim, dim: t.dim, count: len(n.items)}, nil
	}
	return t.pinLeaf(n.page, st)
}

func (v *leafView) point(i int) []float64 { return v.pts[i*v.stride:][:v.dim] }

// item returns entry i; read from a page it carries a nil Point.
func (v *leafView) item(i int) Item {
	if v.items != nil {
		return v.items[i]
	}
	off := 1 + i*v.stride + v.dim
	return Item{ID: int64(v.wd[off]), Slot: int32(uint32(v.wd[off+1]))}
}

func (v *leafView) close() {
	if v.fr != nil {
		v.pool.Unpin(v.fr)
	}
}

// Neighbor is one result of a nearest-neighbor search: the item's ID and
// Slot, and the Euclidean distance from the query (point or rect) to its
// point.
type Neighbor struct {
	ID   int64
	Slot int32
	Dist float64
}

// NNIter enumerates items in ascending order of distance to a query
// rectangle, best-first by MINDIST: Next returns the next neighbor on
// demand. This is the incremental ranking primitive of the optimal
// multi-step kNN algorithm (Seidl & Kriegel): the caller keeps pulling
// candidates until the feature-space distance exceeds its current exact
// kth-best distance, and hands Next that distance so the frontier holds only
// what can still come before it. It is also the tree's range search: the
// stream cut at the radius (RangeSearchInto). Push puts items from outside
// the tree (the index's flat delta) on the same frontier, so one stream
// ranks both. The tree is never mutated, so concurrent traversals are
// safe. Close releases the frontier, after which Next must not be used.
type NNIter struct {
	t      *Tree
	q      Rect
	st     *Stats
	pq     *Frontier
	pooled bool // pq came from frontierPool, and goes back there
	err    error
}

// NNIter starts an incremental nearest-neighbor traversal; a paged tree's
// pages are pinned only while a leaf is expanded. Node and leaf accesses
// accumulate into st, which may be nil. Check Err once Next reports
// exhaustion.
func (t *Tree) NNIter(q Rect, st *Stats) NNIter {
	it := t.NNIterOn(frontierPool.Get().(*Frontier), q, st)
	it.pooled = true
	return it
}

// NNIterOn is NNIter on the caller's frontier f instead of a pooled one: a
// caller with per-query scratch of its own keeps f there, so a walk takes
// no second pooled object. f serves one walk at a time, until Close.
func (t *Tree) NNIterOn(f *Frontier, q Rect, st *Stats) NNIter {
	if q.Dim() != t.dim {
		panic("rtree: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	if f.es == nil {
		f.es = make([]nnEntry, 0, frontierCap)
	}
	f.box = q.kernelBox(f.box)
	if t.root != nil {
		f.push(nodeEntry(0, t.root)) // within every bound
	}
	return NNIter{t: t, q: q, st: st, pq: f}
}

// Push puts items from outside the tree — a caller's flat delta — on the
// frontier as a leaf's entries go there: each at its distance to the query
// box, only if within bound, counted as a push. bound is as for Next. The
// row is read whole, here, and counts as the node accesses of the leaves it
// would fill at the tree's capacity; its points are not retained.
func (it *NNIter) Push(items []Item, bound float64) {
	it.st.NodeAccesses += it.t.leavesOf(len(items))
	for _, e := range items {
		if d := math.Sqrt(it.q.boxDist(e.Point)); d <= bound {
			it.pq.push(itemEntry(d, e))
			it.st.FrontierPushes++
		}
	}
}

// Next returns the next-nearest item no farther than bound, or ok=false when
// there is none: the traversal is exhausted or a leaf page could not be read
// (Err tells which). bound must not grow from one call to the next — pass
// +Inf for the plain ranking. A child or leaf entry beyond the bound of the
// call that meets it is never put on the frontier: it could only have
// surfaced after the stream had ended. Ties with the bound are kept.
func (it *NNIter) Next(bound float64) (Neighbor, bool) {
	pq := it.pq
	// The nearest frontier entry beyond the bound ends the stream: every
	// other is at least as far.
	for pq.len() > 0 && it.err == nil && pq.es[0].dist() <= bound {
		e := pq.pop()
		n := e.node
		if n == nil {
			it.st.LeafHits++
			return Neighbor{ID: e.id, Slot: e.slot, Dist: e.dist()}, true
		}
		if !n.leaf {
			it.st.NodeAccesses++
			for i, child := range n.children {
				if d := math.Sqrt(n.rects[i].SquaredMinDistRect(it.q)); d <= bound {
					pq.push(nodeEntry(d, child))
					it.st.FrontierPushes++
				}
			}
			continue
		}
		v, err := openLeaf(n, it.t, it.st)
		if err != nil {
			it.err = err
			break
		}
		// One pass computes the whole leaf's box distances, then the
		// entries within the bound go on the frontier, in entry order.
		pq.row = it.q.leafDists(pq.row, v.pts, v.stride, v.count, pq.box)
		for i, d2 := range pq.row {
			if d := math.Sqrt(d2); d <= bound {
				pq.push(itemEntry(d, v.item(i)))
				it.st.FrontierPushes++
			}
		}
		v.close()
	}
	return Neighbor{}, false
}

// Err returns the page read or validation error that ended the traversal
// early, if any; always nil over an in-RAM tree.
func (it *NNIter) Err() error { return it.err }

// Close empties the frontier, holding no node — a kept or pooled slice must
// not keep a replaced tree, and the block of points under it, alive — and
// returns it to the pool if it came from there.
func (it *NNIter) Close() {
	if it.pq != nil {
		clear(it.pq.es) // pop cleared what it vacated
		it.pq.es = it.pq.es[:0]
		if it.pooled {
			frontierPool.Put(it.pq)
		}
		it.pq = nil
	}
}

// nnEntry is one frontier entry, 32 bytes: a node still to open, or (node
// nil) an item by ID and Slot. key orders the best-first frontier as one
// integer: a distance is never below +0, so its bits sort as it does, and
// the low bit puts items before nodes at equal distance — results surface as
// soon as they are final.
type nnEntry struct {
	key  uint64 // Float64bits(dist)<<1, |1 for a node
	node *node
	id   int64
	slot int32
}

func nodeEntry(dist float64, n *node) nnEntry {
	return nnEntry{key: math.Float64bits(dist)<<1 | 1, node: n}
}

func itemEntry(dist float64, it Item) nnEntry {
	return nnEntry{key: math.Float64bits(dist) << 1, id: it.ID, slot: it.Slot}
}

func (e nnEntry) dist() float64 { return math.Float64frombits(e.key >> 1) }

// nnHeap is a typed binary min-heap. container/heap would box every entry
// through interface{} — one allocation per push/pop — which dominated the
// kNN query allocation profile; the typed form is allocation-free once the
// backing slice is warm, and the pool reuses that slice across queries.
// Both sifts move a hole to where the entry belongs instead of swapping it
// there.
type nnHeap struct{ es []nnEntry }

// Frontier is one traversal's reusable state: the heap, the row an opened
// leaf's squared box distances are computed into, and the query box in the
// leaf kernel's layout (Rect.kernelBox). The zero value is ready to use.
type Frontier struct {
	nnHeap
	row, box []float64
}

var frontierPool = sync.Pool{New: func() interface{} { return new(Frontier) }}

// frontierCap is a fresh frontier's heap capacity, 32 KiB: one allocation,
// where growing by append from empty takes a dozen on the first walk after
// a collection emptied the pool the frontier lives in. A range query over a
// few thousand series holds its candidates on the frontier at once.
const frontierCap = 1024

func (h *nnHeap) len() int { return len(h.es) }

func (h *nnHeap) push(e nnEntry) {
	h.es = append(h.es, e)
	es := h.es
	i := len(es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.key >= es[p].key {
			break
		}
		es[i] = es[p]
		i = p
	}
	es[i] = e
}

func (h *nnHeap) pop() nnEntry {
	es := h.es
	top := es[0]
	n := len(es) - 1
	e := es[n]
	es[n].node = nil
	h.es = es[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].key < es[c].key {
			c = r
		}
		if es[c].key >= e.key {
			break
		}
		es[i] = es[c]
		i = c
	}
	es[i] = e
	return top
}

// visit is the one full walk, below n of t (nil: nothing); a point read
// from a page is copied out of it.
func visit(n *node, t *Tree, fn func(Item)) error {
	if n == nil {
		return nil
	}
	if !n.leaf {
		for _, c := range n.children {
			if err := visit(c, t, fn); err != nil {
				return err
			}
		}
		return nil
	}
	v, err := openLeaf(n, t, &Stats{})
	if err != nil {
		return err
	}
	for i := 0; i < v.count; i++ {
		it := v.item(i)
		if t.pool != nil {
			it.Point = slices.Clone(v.point(i))
		}
		fn(it)
	}
	v.close()
	return nil
}
