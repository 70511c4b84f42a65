package rtree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"warping/internal/pager"
)

// RangeSearch returns the IDs of all items within Euclidean distance radius
// of the query point.
func (t *Tree) RangeSearch(point []float64, radius float64) []Item {
	return t.RangeSearchRect(PointRect(point), radius)
}

// RangeSearchRect is RangeSearchRectStats without cost accounting.
func (t *Tree) RangeSearchRect(q Rect, radius float64) []Item {
	return t.RangeSearchRectStats(q, radius, nil)
}

// RangeSearchRectStats returns all items whose Euclidean distance to the
// query rectangle (e.g. a feature-space envelope box) is at most radius. A
// node is visited only if MINDIST(node MBR, query rect) <= radius; every
// visited node counts as one page access, accumulated into st (which may be
// nil). Searches never mutate the tree, so any number may run concurrently
// as long as each query uses its own Stats.
func (t *Tree) RangeSearchRectStats(q Rect, radius float64, st *Stats) []Item {
	return t.RangeSearchRectInto(q, radius, nil, st)
}

// RangeSearchRectInto is RangeSearchRectStats appending results to dst
// (which may be nil), so steady-state callers can reuse one candidate
// buffer across queries instead of allocating per call.
func (t *Tree) RangeSearchRectInto(q Rect, radius float64, dst []Item, st *Stats) []Item {
	out, _ := rangeSearch(t.root, nil, t.dim, q, radius, dst, st) // a heap walk pins no page, so cannot fail
	return out
}

// rangeSearch is the one range walker: root is a heap tree's root (pt nil)
// or a paged tree's, whose leaves are read through pt's buffer pool. What
// was found before a page failed comes back with the error, so a pooled
// dst keeps its growth.
func rangeSearch(root *node, pt *PagedTree, dim int, q Rect, radius float64, dst []Item, st *Stats) ([]Item, error) {
	if q.Dim() != dim {
		panic("rtree: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	r2 := radius * radius
	out := dst
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.leaf {
			v, err := openLeaf(n, pt, st)
			if err != nil {
				return err
			}
			for i := 0; i < v.count; i++ {
				if q.squaredMinDistLeq(v.point(i), r2) {
					out = append(out, v.item(i))
					st.LeafHits++
				}
			}
			v.close()
			return nil
		}
		st.NodeAccesses++
		for i, child := range n.children {
			if n.rects[i].SquaredMinDistRect(q) <= r2 {
				if err := walk(child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := walk(root)
	return out, err
}

// leafView reads one leaf's entries in whichever form the leaf is held: a
// heap leaf's items, or the float and word views of its pinned page. The accessors are a predictable branch per entry and small enough
// to inline, so the walkers pay no call for serving both.
type leafView struct {
	n     *node // heap leaf; nil when reading a page
	fr    *pager.Frame
	pool  *pager.Pool
	fl    []float64
	wd    []uint64
	dim   int
	count int
}

// openLeaf counts the visit to leaf n and returns a view of its entries. pt
// is the paged tree n is a stub of, nil when n is a heap leaf. The view
// must be closed.
func openLeaf(n *node, pt *PagedTree, st *Stats) (leafView, error) {
	if pt == nil {
		st.NodeAccesses++
		return leafView{n: n, count: len(n.items)}, nil
	}
	return pt.pinLeaf(n.page, st)
}

func (v *leafView) point(i int) []float64 {
	if v.n != nil {
		return v.n.items[i].Point
	}
	off := 1 + i*(v.dim+2)
	return v.fl[off : off+v.dim]
}

// item returns entry i; read from a page it carries a nil Point.
func (v *leafView) item(i int) Item {
	if v.n != nil {
		return v.n.items[i]
	}
	off := 1 + i*(v.dim+2) + v.dim
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
// what can still come before it. The pull form lets a caller lazily merge
// several ranked streams (the paged base tree and the in-RAM delta tree)
// without materializing either. The tree is never mutated, so concurrent
// traversals are safe. Close releases the pooled frontier, after which Next
// must not be used.
type NNIter struct {
	pt  *PagedTree // whose pool the leaves are read through; nil over a heap tree
	q   Rect
	st  *Stats
	pq  *nnHeap
	err error
}

// NNIter starts an incremental nearest-neighbor traversal. Node and leaf
// accesses accumulate into st, which may be nil.
func (t *Tree) NNIter(q Rect, st *Stats) NNIter {
	return newNNIter(t.root, nil, t.dim, q, st)
}

// newNNIter starts the one best-first walker at root (nil: nothing to
// walk); pt is as for rangeSearch.
func newNNIter(root *node, pt *PagedTree, dim int, q Rect, st *Stats) NNIter {
	if q.Dim() != dim {
		panic("rtree: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	pq := nnHeapPool.Get().(*nnHeap)
	if root != nil {
		pq.push(nodeEntry(0, root)) // within every bound
	}
	return NNIter{pt: pt, q: q, st: st, pq: pq}
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
		v, err := openLeaf(n, it.pt, it.st)
		if err != nil {
			it.err = err
			break
		}
		for i := 0; i < v.count; i++ {
			if d := math.Sqrt(it.q.boxDist(v.point(i))); d <= bound {
				pq.push(itemEntry(d, v.item(i)))
				it.st.FrontierPushes++
			}
		}
		v.close()
	}
	return Neighbor{}, false
}

// Err returns the page read or validation error that ended the traversal
// early, if any; always nil over a heap tree.
func (it *NNIter) Err() error { return it.err }

// Close returns the frontier to the pool, holding no node: a pooled slice
// must not keep a replaced tree, and the block of points under it, alive.
func (it *NNIter) Close() {
	if it.pq != nil {
		clear(it.pq.es) // pop cleared what it vacated
		it.pq.es = it.pq.es[:0]
		nnHeapPool.Put(it.pq)
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

var nnHeapPool = sync.Pool{New: func() interface{} { return new(nnHeap) }}

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

// Visit walks every item in the tree in leaf order (no stats impact). The
// items' points are the tree's own: fn may retain them but must not modify
// them.
func (t *Tree) Visit(fn func(Item)) {
	_ = visit(t.root, nil, fn) // a heap walk pins no page, so cannot fail
}

// visit is the one full walk; pt is as for rangeSearch, and a point read
// from a page is copied out of it.
func visit(n *node, pt *PagedTree, fn func(Item)) error {
	if !n.leaf {
		for _, c := range n.children {
			if err := visit(c, pt, fn); err != nil {
				return err
			}
		}
		return nil
	}
	v, err := openLeaf(n, pt, &Stats{})
	if err != nil {
		return err
	}
	for i := 0; i < v.count; i++ {
		it := v.item(i)
		if pt != nil {
			it.Point = slices.Clone(v.point(i))
		}
		fn(it)
	}
	v.close()
	return nil
}

// CheckInvariants validates structural invariants (for tests): MBR
// containment, entry counts, uniform leaf depth. It returns the first
// violation found, or nil.
func (t *Tree) CheckInvariants() error {
	return t.check(t.root, nil, true)
}

func (t *Tree) check(n *node, parentRect *Rect, isRoot bool) error {
	count := len(n.rects)
	if n.leaf {
		if len(n.items) != count {
			return errf("leaf has %d rects but %d items", count, len(n.items))
		}
		if n.level != 0 {
			return errf("leaf at level %d", n.level)
		}
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
