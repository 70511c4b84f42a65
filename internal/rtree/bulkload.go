package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BulkLoad builds a tree from a static item set: Pack over the items laid
// out as a run of entries, in order, each point rounded to float32. The
// caller's point slices are not retained.
func BulkLoad(dim int, cfg Config, items []Item) *Tree {
	es := NewEntries(dim)
	es.w = make([]uint32, 0, len(items)*(dim+2))
	for i, it := range items {
		if len(it.Point) != dim {
			panic(fmt.Sprintf("rtree: item %d has dim %d, tree dim %d", i, len(it.Point), dim))
		}
		es.Append(it.ID, it.Point)
	}
	return Pack(cfg, es)
}

// Pack builds a tree over the run es using Sort-Tile-Recursive (STR)
// packing: entries are recursively sorted and tiled one dimension at a time
// into fully packed leaves, and upper levels are packed the same way over
// node centers. The resulting tree is far better clustered than one grown
// by repeated insertion (fewer overlapping MBRs, fewer page accesses per
// query) and builds in O(n log n). It is the only way a tree is built. The
// entries are copied, in leaf order, into one block the tree owns, so each
// leaf is one contiguous run of it and the entry met r-th in leaf order
// (VisitLeaves) is at position r; es is not retained. The tree's slack is
// es's, and its leaves' boxes hold the stored points.
func Pack(cfg Config, es Entries) *Tree {
	dim := es.dim
	t := New(dim, cfg)
	t.slack = slices.Clone(es.slack)
	n := es.Len()
	if n == 0 {
		return t
	}
	stride := dim + 2
	order := make([]packEntry, n)
	for i := range order {
		order[i].i = i
	}
	// A point's center is its stored coordinate: times two, lo + hi.
	strSort(order, func(i, axis int) float64 {
		c := float64(math.Float32frombits(es.w[i*stride+axis]))
		return c + c
	}, 0, dim, t.maxEntries)
	var nodes []*node
	var boxes []Rect
	p := make([]float64, dim)
	for _, tile := range t.tiles(order) {
		box := PointRect(es.widened(p, tile[0].i)).Clone()
		for _, e := range tile[1:] {
			box.unionInPlace(PointRect(es.widened(p, e.i)))
		}
		nodes, boxes = append(nodes, &node{leaf: true, src: tile}), append(boxes, box)
	}
	for len(nodes) > 1 {
		nodes, boxes = t.packLevel(nodes, boxes)
	}
	t.root = nodes[0]
	t.size = n
	block := make([]uint32, 0, n*stride)
	leaves(t.root, func(l *node) {
		l.first = len(block) / stride
		for _, e := range l.src {
			block = append(block, es.w[e.i*stride:(e.i+1)*stride]...)
		}
		l.ents = Entries{dim: dim, w: block[l.first*stride : len(block) : len(block)]}
		l.src = nil
	})
	return t
}

// leaves calls fn on every leaf below n in leaf order: depth-first, left to
// right.
func leaves(n *node, fn func(*node)) {
	for _, c := range n.children {
		leaves(c, fn)
	}
	if n.leaf {
		fn(n)
	}
}

// packEntry is one unit being packed, as the sort moves it: its index in
// the run or among the level's nodes, and the key it is sorted by.
type packEntry struct {
	key float64 // the unit's center on the axis being sorted, times two
	i   int
}

// tiles cuts the ordered units into nodes' worth: M units each, but the one
// before the last gives the last what it lacks of the minimum fill m.
func (t *Tree) tiles(order []packEntry) [][]packEntry {
	m := t.maxEntries
	out := make([][]packEntry, 0, (len(order)+m-1)/m)
	for start, end := 0, 0; start < len(order); start = end {
		end = min(start+m, len(order))
		if rest := len(order) - end; rest > 0 && rest < t.minEntries {
			end -= t.minEntries - rest
		}
		out = append(out, order[start:end])
	}
	return out
}

// packLevel packs children, whose boxes are boxes, into the nodes one level
// above them by STR over the boxes' centers, and returns those nodes and
// their boxes.
func (t *Tree) packLevel(children []*node, boxes []Rect) ([]*node, []Rect) {
	order := make([]packEntry, len(children))
	for i := range order {
		order[i].i = i
	}
	strSort(order, func(i, axis int) float64 { return boxes[i].Lo[axis] + boxes[i].Hi[axis] }, 0, t.dim, t.maxEntries)
	var nodes []*node
	var up []Rect
	for _, tile := range t.tiles(order) {
		n := &node{level: children[0].level + 1}
		box := boxes[tile[0].i].Clone()
		for _, e := range tile {
			n.rects = append(n.rects, boxes[e.i])
			n.children = append(n.children, children[e.i])
			box.unionInPlace(boxes[e.i])
		}
		nodes, up = append(nodes, n), append(up, box)
	}
	return nodes, up
}

// strSort recursively orders entries for tiling: sort by the center of the
// current axis (key), split into vertical slabs sized so that each slab
// holds a near-cubic number of pages, and recurse on the next axis within
// slabs. An axis that would hold one slab — the first dim − ⌊log₂ pages⌋-odd
// of them — is not sorted: the next axis would sort the same run again.
func strSort(entries []packEntry, key func(i, axis int) float64, axis, dim, capacity int) {
	if len(entries) <= capacity || axis >= dim {
		return
	}
	pages := (len(entries) + capacity - 1) / capacity
	// Number of slabs along this axis: pages^(1/(dim-axis)).
	slabs := max(iroot(pages, dim-axis), 1)
	if slabs == 1 {
		strSort(entries, key, axis+1, dim, capacity)
		return
	}
	for i, e := range entries {
		entries[i].key = key(e.i, axis)
	}
	slices.SortFunc(entries, func(a, b packEntry) int { return cmp.Compare(a.key, b.key) })
	slabSize := (len(entries) + slabs - 1) / slabs
	// Round slab size to a multiple of capacity so pages don't straddle
	// slab boundaries.
	if rem := slabSize % capacity; rem != 0 {
		slabSize += capacity - rem
	}
	for start := 0; start < len(entries); start += slabSize {
		end := min(start+slabSize, len(entries))
		strSort(entries[start:end], key, axis+1, dim, capacity)
	}
}

// iroot returns floor-ish n^(1/k), at least 1.
func iroot(n, k int) int {
	if n <= 1 || k <= 1 {
		if k <= 1 {
			return n
		}
		return 1
	}
	r := 1
	for pow(r+1, k) <= n {
		r++
	}
	return r
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out < 0 || out > 1<<40 {
			return 1 << 40
		}
	}
	return out
}
