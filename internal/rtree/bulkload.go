package rtree

import (
	"fmt"
	"sort"
)

// BulkLoad builds a tree from a static item set using Sort-Tile-Recursive
// (STR) packing: items are recursively sorted and tiled one dimension at a
// time into fully packed leaves, and upper levels are packed the same way
// over node centers. The resulting tree is far better clustered than one
// grown by repeated insertion (fewer overlapping MBRs, fewer page accesses
// per query) and builds in O(n log n). It is the only way a tree is built.
// The entries are copied, in leaf order, into one block the tree owns, so
// each leaf is one contiguous run of it and the item met r-th in leaf order
// (VisitLeaves) is at position r; the caller's point slices are not
// retained.
func BulkLoad(dim int, cfg Config, items []Item) *Tree {
	t := New(dim, cfg)
	if len(items) == 0 {
		return t
	}
	entries := make([]packEntry, len(items))
	for i, it := range items {
		if len(it.Point) != dim {
			panic(fmt.Sprintf("rtree: item %d has dim %d, tree dim %d", i, len(it.Point), dim))
		}
		entries[i] = packEntry{rect: PointRect(it.Point), id: it.ID}
	}
	nodes := t.packLevel(entries, 0)
	level := 0
	for len(nodes) > 1 {
		level++
		entries := make([]packEntry, len(nodes))
		for i, n := range nodes {
			entries[i] = packEntry{rect: n.mbr(), child: n}
		}
		nodes = t.packLevel(entries, level)
	}
	t.root = nodes[0]
	t.size = len(items)
	block := make([]float64, 0, t.size*(dim+1))
	leaves(t.root, func(n *node) {
		n.first = len(block) / (dim + 1)
		block = append(block, n.ents.w...)
		n.ents.w = block[len(block)-len(n.ents.w) : len(block) : len(block)]
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

// packEntry is one unit being packed: an item's point and id (leaf level)
// or a child node and its box (upper levels).
type packEntry struct {
	rect  Rect
	id    int64
	child *node
}

// packLevel tiles the entries into nodes of the given level using STR
// ordering and returns the nodes. Nodes take M entries each, but the one
// before the last gives the last what it lacks of the minimum fill m.
func (t *Tree) packLevel(entries []packEntry, level int) []*node {
	m := t.maxEntries
	strSort(entries, 0, t.dim, m)
	nodes := make([]*node, 0, (len(entries)+m-1)/m)
	for start, end := 0, 0; start < len(entries); start = end {
		end = min(start+m, len(entries))
		if rest := len(entries) - end; rest > 0 && rest < t.minEntries {
			end -= t.minEntries - rest
		}
		n := &node{leaf: level == 0, level: level, ents: NewEntries(t.dim)}
		for _, e := range entries[start:end] {
			if n.leaf {
				n.ents.Append(e.id, e.rect.Lo)
			} else {
				n.rects = append(n.rects, e.rect)
				n.children = append(n.children, e.child)
			}
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// strSort recursively orders entries for tiling: sort by the center of the
// current axis, split into vertical slabs sized so that each slab holds a
// near-cubic number of pages, and recurse on the next axis within slabs.
func strSort(entries []packEntry, axis, dim, capacity int) {
	if len(entries) <= capacity || axis >= dim {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		ci := entries[i].rect.Lo[axis] + entries[i].rect.Hi[axis]
		cj := entries[j].rect.Lo[axis] + entries[j].rect.Hi[axis]
		return ci < cj
	})
	pages := (len(entries) + capacity - 1) / capacity
	// Number of slabs along this axis: pages^(1/(dim-axis)).
	slabs := iroot(pages, dim-axis)
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(entries) + slabs - 1) / slabs
	// Round slab size to a multiple of capacity so pages don't straddle
	// slab boundaries.
	if rem := slabSize % capacity; rem != 0 {
		slabSize += capacity - rem
	}
	for start := 0; start < len(entries); start += slabSize {
		end := start + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		strSort(entries[start:end], axis+1, dim, capacity)
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
