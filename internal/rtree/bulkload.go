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
// The points are copied, in leaf order, into one block the tree owns, so each
// leaf's points are one contiguous run of it; the caller's point slices are
// not retained, and the items' Points returned by searches lie in the block.
func BulkLoad(dim int, cfg Config, items []Item) *Tree {
	t := New(dim, cfg)
	if len(items) == 0 {
		return t
	}
	for i, it := range items {
		if len(it.Point) != dim {
			panic(fmt.Sprintf("rtree: item %d has dim %d, tree dim %d", i, len(it.Point), dim))
		}
	}
	// Build leaves.
	leafEntries := make([]packEntry, len(items))
	for i, it := range items {
		leafEntries[i] = packEntry{rect: PointRect(it.Point), item: it}
	}
	nodes := t.packLevel(leafEntries, 0)
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
	block := make([]float64, 0, t.size*dim)
	leaves(t.root, func(n *node) {
		start := len(block)
		for i := range n.items {
			block = append(block, n.items[i].Point...)
			p := block[len(block)-dim : len(block) : len(block)]
			n.items[i].Point, n.rects[i] = p, PointRect(p)
		}
		n.pts = block[start:len(block):len(block)]
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

// Relabel calls fn on every item of an in-RAM tree in leaf order —
// depth-first, left to right: the order VisitLeaves yields and WritePaged
// numbers leaf pages in — and lets it rewrite the item's Slot in place. It is
// how a caller that keeps per-item data by Slot lays that data out the way
// BulkLoad laid out the tree: the item met r-th gets Slot r, and one leaf's
// data — the items a best-first traversal scans in a row — is contiguous, as
// the leaf's points already are in the tree's block. fn must not rewrite the
// Point: it lies in that block, which the leaf scan reads.
func (t *Tree) Relabel(fn func(it *Item)) {
	if t.root == nil {
		return
	}
	leaves(t.root, func(n *node) {
		for i := range n.items {
			fn(&n.items[i])
		}
	})
}

// packEntry is one unit being packed: either an item (leaf level) or a
// child node (upper levels).
type packEntry struct {
	rect  Rect
	item  Item
	child *node
}

// packLevel tiles the entries into nodes of the given level using STR
// ordering and returns the nodes.
func (t *Tree) packLevel(entries []packEntry, level int) []*node {
	m := t.maxEntries
	strSort(entries, 0, t.dim, m)
	count := (len(entries) + m - 1) / m
	nodes := make([]*node, 0, count)
	for start := 0; start < len(entries); start += m {
		end := start + m
		if end > len(entries) {
			end = len(entries)
		}
		chunk := entries[start:end]
		// Avoid an underfull final node: borrow from the previous chunk.
		if len(chunk) < t.minEntries && len(nodes) > 0 {
			prev := nodes[len(nodes)-1]
			for len(chunk) < t.minEntries {
				last := len(prev.rects) - 1
				borrowed := packEntry{rect: prev.rects[last]}
				if prev.leaf {
					borrowed.item = prev.items[last]
					prev.items = prev.items[:last]
				} else {
					borrowed.child = prev.children[last]
					prev.children = prev.children[:last]
				}
				prev.rects = prev.rects[:last]
				chunk = append([]packEntry{borrowed}, chunk...)
			}
		}
		n := &node{leaf: level == 0, level: level}
		for _, e := range chunk {
			n.rects = append(n.rects, e.rect)
			if n.leaf {
				n.items = append(n.items, e.item)
			} else {
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
