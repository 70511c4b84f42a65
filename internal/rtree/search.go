package rtree

import (
	"math"
	"slices"
	"sync"

	"warping/internal/pager"
)

// RangeSearchInto appends to dst (which may be nil) every item whose
// Euclidean distance to the query rectangle (e.g. a feature-space envelope
// box) is at most radius, measured, as every distance of the walk is, from
// the stored point to the query widened by the tree's rounding slack
// (Rect.widen): an item slightly beyond radius may come back, but none
// within it is missed. It is the best-first walk of NNIter, cut at radius:
// it opens exactly the nodes whose MINDIST to the widened query is within
// radius, each counted as one page access into st (which may be nil), and a
// paged leaf's pin through the pool counts a miss when it read disk. Items
// come back in ascending distance, with nil Points. What was found before a
// page failed comes back with the error, so a pooled dst keeps its growth.
// Searches never mutate the tree, so any number may run concurrently as
// long as each query uses its own Stats.
func (t *Tree) RangeSearchInto(q Rect, radius float64, dst []Item, st *Stats) ([]Item, error) {
	it := t.NNIter(q, st)
	defer it.Close()
	for nb, ok := it.Next(radius); ok; nb, ok = it.Next(radius) {
		dst = append(dst, Item{ID: nb.ID})
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

// leafView is one run of entries as the walker reads it, wherever it is
// held — a RAM leaf's run of the tree's block, the entries of a pinned leaf
// page, or a pushed delta — with the position of its first entry: entry i
// is at position first+i.
type leafView struct {
	Entries
	first int
	fr    *pager.Frame // the pinned page; nil in RAM
	pool  *pager.Pool
}

// openLeaf counts the visit to leaf n of t and returns a view of its
// entries: n's own in RAM, those of the page n is a stub of in a paged
// tree. The view must be closed.
func openLeaf(n *node, t *Tree, st *Stats) (leafView, error) {
	if t.pool == nil {
		st.NodeAccesses++
		return leafView{Entries: n.ents, first: n.first}, nil
	}
	return t.pinLeaf(n, st)
}

func (v *leafView) close() {
	if v.fr != nil {
		v.pool.Unpin(v.fr)
	}
}

// Neighbor is one result of a nearest-neighbor search: the item's ID, its
// position as Slot — its rank in leaf order in the tree, the tree's Len()
// plus its index in a pushed run — and the Euclidean distance from the query
// (point or rect) to its point.
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
// stream cut at the radius (RangeSearchInto). NNIterOn also ranks a run of
// entries from outside the tree (the index's flat delta) in the same
// stream. The tree is never mutated, so concurrent traversals are safe.
// Close releases the frontier, after which Next must not be used.
type NNIter struct {
	t      *Tree
	q      Rect // the caller's query widened by the slack of the tree and of the run
	st     *Stats
	pq     *Frontier
	pooled bool // pq came from frontierPool, and goes back there
	err    error
}

// NNIter starts an incremental nearest-neighbor traversal; a paged tree's
// pages are pinned only while a leaf is expanded. Node and leaf accesses
// accumulate into st, which may be nil. Check Err once Next reports
// exhaustion. Distances are from the stored points to q widened by the
// tree's slack (Rect.widen): never above the given points' distances to q.
func (t *Tree) NNIter(q Rect, st *Stats) NNIter {
	it := t.NNIterOn(frontierPool.Get().(*Frontier), q, Entries{}, 0, st)
	it.pooled = true
	return it
}

// NNIterOn is NNIter on the caller's frontier f instead of a pooled one,
// ranking the run es — a caller's flat delta, possibly empty — with the
// tree's entries: es's entries within bound (as for Next) go on the
// frontier as an opened leaf's do, the i-th at position Len()+i. The run is
// read whole, here, and counts as the node accesses of the leaves it would
// fill at the tree's capacity; it is not retained. The query is widened
// once, by the larger of the tree's and the run's slack. A caller with
// per-query scratch of its own keeps f there, so a walk takes no second
// pooled object. f serves one walk at a time, until Close.
func (t *Tree) NNIterOn(f *Frontier, q Rect, es Entries, bound float64, st *Stats) NNIter {
	if q.Dim() != t.dim {
		panic("rtree: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	if f.items == nil {
		f.es = make([]nnEntry, 0, frontierCap/16)
		f.items = make([]nnItem, 0, frontierCap)
	}
	it := NNIter{t: t, st: st, pq: f}
	it.q = q.widen(f.lo, f.hi, t.slack, es.slack)
	if t.slack != nil || es.slack != nil {
		f.lo, f.hi = it.q.Lo, it.q.Hi
	}
	f.box = it.q.kernelBox(f.box)
	if t.root != nil {
		f.push(nnEntry{key: 1, node: t.root}) // distance 0: within every bound
	}
	if n := es.Len(); n > 0 {
		st.NodeAccesses += t.leavesOf(n)
		it.pushLeaf(leafView{Entries: es, first: t.size}, bound)
	}
	return it
}

// pushLeaf opens a cursor over the entries of v within bound: one kernel
// pass computes their box distances, and the cursor goes on the frontier at
// the nearest one's.
func (it *NNIter) pushLeaf(v leafView, bound float64) {
	pq := it.pq
	pq.row = it.q.leafDists(pq.row, v.Entries, pq.box)
	lo := len(pq.items)
	for i, d2 := range pq.row {
		if d := math.Sqrt(d2); d <= bound {
			pq.items = append(pq.items, nnItem{key: math.Float64bits(d) << 1, id: v.id(i), slot: int32(v.first + i)})
		}
	}
	run := pq.items[lo:]
	if len(run) == 0 {
		return
	}
	for i := len(run)/2 - 1; i >= 0; i-- {
		siftItem(run, i, run[i])
	}
	pq.push(nnEntry{key: run[0].key, lo: int32(lo), hi: int32(len(pq.items))})
	it.st.FrontierPushes++
}

// Next returns the next-nearest item no farther than bound, or ok=false when
// there is none: the traversal is exhausted or a leaf page could not be read
// (Err tells which). bound must not grow from one call to the next — pass
// +Inf for the plain ranking. A child or leaf entry beyond the bound of the
// call that meets it never goes on the frontier: it could only have
// surfaced after the stream had ended. Ties with the bound are kept.
func (it *NNIter) Next(bound float64) (Neighbor, bool) {
	pq := it.pq
	// The nearest frontier entry beyond the bound ends the stream: every
	// other is at least as far.
	for pq.len() > 0 && it.err == nil && pq.es[0].dist() <= bound {
		if pq.es[0].node == nil {
			return it.surface(bound), true
		}
		n := pq.pop().node
		if !n.leaf {
			it.st.NodeAccesses++
			for i, child := range n.children {
				if d := math.Sqrt(n.rects[i].SquaredMinDistRect(it.q)); d <= bound {
					pq.push(nnEntry{key: math.Float64bits(d)<<1 | 1, node: child})
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
		it.pushLeaf(v, bound)
		v.close()
	}
	return Neighbor{}, false
}

// surface returns the head of the cursor at the top of the frontier, and
// keys the cursor to its next entry — a push — if that is within bound;
// otherwise the cursor is done, since the bound never grows.
func (it *NNIter) surface(bound float64) Neighbor {
	pq := it.pq
	c := &pq.es[0]
	run := pq.items[c.lo:c.hi]
	head := run[0]
	it.st.LeafHits++
	if n := len(run) - 1; n > 0 {
		siftItem(run[:n], 0, run[n])
		if next := run[0].key; math.Float64frombits(next>>1) <= bound {
			c.key, c.hi = next, c.hi-1
			pq.down(0, *c)
			it.st.FrontierPushes++
			return head.neighbor()
		}
	}
	pq.pop()
	return head.neighbor()
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
		it.pq.items = it.pq.items[:0]
		if it.pooled {
			frontierPool.Put(it.pq)
		}
		it.pq = nil
	}
}

// nnEntry is one frontier entry, 24 bytes: a node still to open, or (node
// nil) an opened leaf's cursor, whose in-bound entries are the frontier's
// items[lo:hi], heap-ordered, the nearest first. key orders the best-first
// frontier as one integer: a distance is never below +0, so its bits sort
// as it does, and the low bit puts a cursor before a node at equal
// distance — results surface as soon as they are final. A cursor's key is
// its first entry's.
type nnEntry struct {
	key    uint64 // Float64bits(dist)<<1, |1 for a node
	node   *node
	lo, hi int32
}

func (e nnEntry) dist() float64 { return math.Float64frombits(e.key >> 1) }

// nnItem is an opened leaf's entry in its cursor: its distance as a cursor
// key, its ID and its position.
type nnItem struct {
	key  uint64 // Float64bits(dist)<<1
	id   int64
	slot int32
}

func (x nnItem) neighbor() Neighbor {
	return Neighbor{ID: x.id, Slot: x.slot, Dist: math.Float64frombits(x.key >> 1)}
}

// siftItem puts x at index i of the cursor h, whose entries below i are
// heap-ordered, and moves it down to where it belongs.
func siftItem(h []nnItem, i int, x nnItem) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].key < h[c].key {
			c = r
		}
		if h[c].key >= x.key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// nnHeap is a typed binary min-heap. container/heap would box every entry
// through interface{} — one allocation per push/pop — which dominated the
// kNN query allocation profile; the typed form is allocation-free once the
// backing slice is warm, and the pool reuses that slice across queries.
// Both sifts move a hole to where the entry belongs instead of swapping it
// there.
type nnHeap struct{ es []nnEntry }

// Frontier is one traversal's reusable state: the heap of nodes and
// cursors, the entries the cursors hold, the row an opened leaf's squared
// box distances are computed into, the widened query box (lo, hi) and that
// box in the leaf kernel's layout (Rect.kernelBox). The zero value is ready
// to use.
type Frontier struct {
	nnHeap
	items    []nnItem
	row, box []float64
	lo, hi   []float64
}

var frontierPool = sync.Pool{New: func() interface{} { return new(Frontier) }}

// frontierCap is a fresh frontier's capacity for cursor entries, 24 KiB:
// one allocation, where growing by append from empty takes a dozen on the
// first walk after a collection emptied the pool the frontier lives in. A
// range query over a few thousand series holds its candidates in cursors at
// once. The heap, of nodes and cursors, starts at a sixteenth of that.
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
	if n > 0 {
		h.down(0, e)
	}
	return top
}

// down puts e at index i, whose subtrees are heap-ordered, and moves it
// down to where it belongs.
func (h *nnHeap) down(i int, e nnEntry) {
	es := h.es
	n := len(es)
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
}

// visit is the one full walk, below n of t (nil: nothing). Each leaf's
// items are copied out of it before fn sees them, so no page stays pinned
// while fn runs.
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
	items := make([]Item, v.Len())
	for i := range items {
		items[i] = v.Item(i)
	}
	v.close()
	for _, it := range items {
		fn(it)
	}
	return nil
}

// Entries returns a copy of every entry of the tree in leaf order, the r-th
// at position r, with the tree's slack: Pack over it, and over a delta it is
// extended by, packs what the two hold without rounding a point again.
func (t *Tree) Entries() (Entries, error) {
	out := NewEntries(t.dim)
	out.w = make([]uint32, 0, t.size*(t.dim+2))
	out.slack = slices.Clone(t.slack)
	if t.root == nil {
		return out, nil
	}
	var err error
	leaves(t.root, func(n *node) {
		if err != nil {
			return
		}
		var v leafView
		if v, err = openLeaf(n, t, &Stats{}); err == nil {
			out.w = append(out.w, v.w...)
			v.close()
		}
	})
	return out, err
}
