package rtree

import (
	"fmt"
	"math"
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
// heap leaf's rects and items, or the float and word views of its pinned
// page. The accessors are a predictable branch per entry and small enough
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
		return v.n.rects[i].Lo
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

// Neighbor is one result of a nearest-neighbor search.
type Neighbor struct {
	Item Item
	// Dist is the Euclidean distance from the query (point or rect) to
	// the item's point.
	Dist float64
}

// KNN returns the k nearest items to the query point by Euclidean distance,
// closest first, using best-first MINDIST traversal.
func (t *Tree) KNN(point []float64, k int) []Neighbor {
	return t.KNNRect(PointRect(point), k)
}

// KNNRect returns the k items nearest to the query rectangle (distance 0
// for points inside the rect).
func (t *Tree) KNNRect(q Rect, k int) []Neighbor {
	var out []Neighbor
	t.IncrementalNN(q, func(nb Neighbor) bool {
		out = append(out, nb)
		return len(out) < k
	})
	return out
}

// IncrementalNN is IncrementalNNStats without cost accounting.
func (t *Tree) IncrementalNN(q Rect, yield func(Neighbor) bool) {
	t.IncrementalNNStats(q, yield, nil)
}

// IncrementalNNStats enumerates items in ascending order of distance to the
// query rectangle, invoking yield for each; traversal stops when yield
// returns false. This is the incremental ranking primitive of the optimal
// multi-step kNN algorithm (Seidl & Kriegel): the caller can keep pulling
// candidates until the feature-space distance exceeds its current exact
// kth-best distance. Node and leaf accesses accumulate into st (which may be
// nil); the tree itself is never mutated, so concurrent searches are safe.
func (t *Tree) IncrementalNNStats(q Rect, yield func(Neighbor) bool, st *Stats) {
	it := t.NNIter(q, st)
	defer it.Close()
	for {
		nb, ok := it.Next()
		if !ok {
			return
		}
		if !yield(nb) {
			return
		}
	}
}

// NNIter is the pull-based form of IncrementalNNStats: Next returns
// neighbors in ascending distance order on demand. The pull form lets a
// caller lazily merge several ranked streams (the paged base tree and the
// in-RAM delta tree) without materializing either. Close releases the
// pooled frontier; it is safe to call once, after which Next must not be
// used.
type NNIter struct {
	pt  *PagedTree // whose pool the leaves are read through; nil over a heap tree
	q   Rect
	st  *Stats
	pq  *nnHeap
	err error
}

// NNIter starts an incremental nearest-neighbor traversal. st may be nil.
func (t *Tree) NNIter(q Rect, st *Stats) *NNIter {
	return newNNIter(t.root, nil, t.dim, q, st)
}

// newNNIter starts the one best-first walker at root (nil: nothing to
// walk); pt is as for rangeSearch.
func newNNIter(root *node, pt *PagedTree, dim int, q Rect, st *Stats) *NNIter {
	if q.Dim() != dim {
		panic("rtree: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	pq := nnHeapPool.Get().(*nnHeap)
	if root != nil {
		pq.push(nnEntry{node: root}) // alone on the frontier: its distance is never compared
	}
	return &NNIter{pt: pt, q: q, st: st, pq: pq}
}

// Next returns the next-nearest item, or ok=false when the traversal is
// exhausted or a leaf page could not be read; Err tells which.
func (it *NNIter) Next() (Neighbor, bool) {
	pq := it.pq
	for pq.len() > 0 && it.err == nil {
		e := pq.pop()
		n := e.node
		if n == nil {
			it.st.LeafHits++
			return Neighbor{Item: e.item, Dist: e.dist}, true
		}
		if !n.leaf {
			it.st.NodeAccesses++
			for i, child := range n.children {
				d := math.Sqrt(n.rects[i].SquaredMinDistRect(it.q))
				pq.push(nnEntry{node: child, dist: d})
			}
			continue
		}
		v, err := openLeaf(n, it.pt, it.st)
		if err != nil {
			it.err = err
			break
		}
		for i := 0; i < v.count; i++ {
			d := math.Sqrt(it.q.SquaredMinDist(v.point(i)))
			pq.push(nnEntry{item: v.item(i), hasItem: true, dist: d})
		}
		v.close()
	}
	return Neighbor{}, false
}

// Err returns the page read or validation error that ended the traversal
// early, if any; always nil over a heap tree.
func (it *NNIter) Err() error { return it.err }

// Close returns the frontier to the pool.
func (it *NNIter) Close() {
	if it.pq != nil {
		it.pq.reset() // drop Item.Point references before pooling
		nnHeapPool.Put(it.pq)
		it.pq = nil
	}
}

type nnEntry struct {
	node    *node
	item    Item
	hasItem bool
	dist    float64
}

// nnLess orders the best-first frontier: nearer first, and items before
// nodes at equal distance so results surface as soon as they are final.
func nnLess(a, b nnEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.hasItem && !b.hasItem
}

// nnHeap is a typed binary min-heap. container/heap would box every entry
// through interface{} — one allocation per push/pop — which dominated the
// kNN query allocation profile; the typed form is allocation-free once the
// backing slice is warm, and the pool reuses that slice across queries.
type nnHeap struct{ es []nnEntry }

var nnHeapPool = sync.Pool{New: func() interface{} { return new(nnHeap) }}

func (h *nnHeap) len() int { return len(h.es) }

// reset clears retained entries (Item.Point slices would otherwise pin their
// backing arrays while pooled) and empties the heap.
func (h *nnHeap) reset() {
	for i := range h.es {
		h.es[i] = nnEntry{}
	}
	h.es = h.es[:0]
}

func (h *nnHeap) push(e nnEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nnLess(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *nnHeap) pop() nnEntry {
	es := h.es
	top := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = nnEntry{}
	h.es = es[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && nnLess(es[r], es[l]) {
			c = r
		}
		if !nnLess(es[c], es[i]) {
			break
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
	return top
}

// Visit walks every item in the tree (no stats impact), for tests and
// linear-scan baselines.
func (t *Tree) Visit(fn func(Item)) {
	_ = visit(t.root, nil, fn) // a heap walk pins no page, so cannot fail
}

// visit is the one full walk; pt is as for rangeSearch.
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
		fn(v.item(i))
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
		if count < t.cfg.MinEntries {
			return errf("underfull node: %d < %d", count, t.cfg.MinEntries)
		}
	}
	if count > t.cfg.MaxEntries {
		return errf("overfull node: %d > %d", count, t.cfg.MaxEntries)
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
