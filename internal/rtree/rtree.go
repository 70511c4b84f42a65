package rtree

import (
	"fmt"
	"math"
	"sort"
)

// pageBytes is the assumed disk page size from which a zero
// Config.MaxEntries is derived, mirroring a conventional 4 KiB database page.
const pageBytes = 4096

// Config controls tree shape.
type Config struct {
	// MaxEntries is the node capacity M. If zero, it is as many entries as
	// fit a 4 KiB page at the tree's dimensionality. The minimum fill m is
	// derived from it: 40 % of M, at least 2 and at most M/2.
	MaxEntries int
}

// Stats accumulates cost counters. Search-time counters (NodeAccesses,
// LeafHits, FrontierPushes) are accumulated per query: pass a *Stats to the
// search. The tree's own Stats hold only insert-time structural counters
// (Splits, Reinserts).
type Stats struct {
	// NodeAccesses counts every node visited by a query — the paper's
	// "page accesses" measure (one node = one page). For a paged tree this
	// is the logical count; PageMisses is the subset that really hit disk.
	NodeAccesses int
	// PageMisses counts node visits the buffer pool could not serve from
	// memory (paged trees only; always 0 for in-RAM trees).
	PageMisses int
	// LeafHits counts leaf entries returned as candidates.
	LeafHits int
	// FrontierPushes counts the entries (child nodes and leaf items) a
	// best-first traversal put on its frontier: those within its bound.
	FrontierPushes int
	// Splits and Reinserts count structural events during inserts.
	Splits    int
	Reinserts int
}

// Item is a stored object: an identifier and its point in feature space.
// Slot is an opaque caller tag carried through searches untouched (the
// index package stores the item's corpus arena slot there, so candidate
// resolution is a direct arena access instead of an id→slot map lookup).
type Item struct {
	ID    int64
	Slot  int32
	Point []float64
}

type node struct {
	leaf     bool
	level    int // 0 = leaf
	rects    []Rect
	children []*node // internal nodes
	items    []Item  // leaf nodes
	page     uint64  // PagedTree nodes: the page written for it; a leaf there holds nothing else
}

// Tree is an R*-tree over points. Searches are read-pure — cost counters
// accumulate into a caller-provided per-query Stats — so any number of
// searches may run concurrently with each other. Inserts mutate the tree and
// require exclusive access. There is no delete: the index package tombstones
// a removed item and repacks the tree without it.
type Tree struct {
	dim        int
	size       int
	root       *node
	maxEntries int // M
	minEntries int // m
	stats      Stats
	reinLvl    map[int]bool // levels already reinserted during current insert
}

// New creates an empty R*-tree for points of the given dimensionality.
func New(dim int, cfg Config) *Tree {
	if dim < 1 {
		panic(fmt.Sprintf("rtree: invalid dimension %d", dim))
	}
	m := cfg.MaxEntries
	if m == 0 {
		// Entry cost: MBR (2*dim float64) + pointer/id (8 bytes).
		m = max(pageBytes/(16*dim+8), 4)
	}
	if m < 4 {
		panic(fmt.Sprintf("rtree: MaxEntries %d < 4", m))
	}
	return &Tree{
		dim:        dim,
		maxEntries: m,
		minEntries: min(max(m*2/5, 2), m/2),
		root:       &node{leaf: true, level: 0},
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// Stats returns a snapshot of the insert-time structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Insert adds an item. The point slice is retained; callers must not
// mutate it afterwards.
func (t *Tree) Insert(id int64, point []float64) {
	t.InsertItem(Item{ID: id, Point: point})
}

// InsertItem is Insert for a caller-built Item (carrying the Slot tag).
// The point slice is retained; callers must not mutate it afterwards.
func (t *Tree) InsertItem(it Item) {
	if len(it.Point) != t.dim {
		panic(fmt.Sprintf("rtree: point dim %d, tree dim %d", len(it.Point), t.dim))
	}
	t.reinLvl = map[int]bool{}
	t.insertItem(it, 0)
	t.size++
}

// insertItem inserts an item at leaf level (level 0). A leaf entry's
// rectangle shares the item's point: only internal rectangles, which are
// always fresh (mbr), are ever grown in place.
func (t *Tree) insertItem(it Item, level int) {
	t.insertRect(PointRect(it.Point), it, nil, level)
}

// insertRect routes either an item (child == nil) or a subtree to the given
// level, handling overflow with forced reinsert then split.
func (t *Tree) insertRect(r Rect, it Item, child *node, level int) {
	path := t.choosePath(r, level)
	n := path[len(path)-1]
	if child == nil {
		n.items = append(n.items, it)
		n.rects = append(n.rects, r)
	} else {
		n.children = append(n.children, child)
		n.rects = append(n.rects, r)
	}
	t.adjustPath(path, r)
	// Handle overflow bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.rects) <= t.maxEntries {
			continue
		}
		if n != t.root && !t.reinLvl[n.level] {
			t.reinLvl[n.level] = true
			t.reinsert(n, path[:i])
		} else {
			t.splitNode(n, path[:i])
		}
		// Structure may have changed; stop and let subsequent inserts
		// find their own paths. Overflows higher up were handled by
		// splitNode's recursion.
		break
	}
}

// choosePath descends from the root to the node at the target level using
// the R* ChooseSubtree criteria and returns the path (root first).
func (t *Tree) choosePath(r Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n = n.children[best]
		path = append(path, n)
	}
	return path
}

// chooseSubtree picks the child index of n to descend into for rectangle r.
func (t *Tree) chooseSubtree(n *node, r Rect) int {
	childrenAreLeaves := n.level == 1
	best := 0
	if childrenAreLeaves {
		// Minimize overlap enlargement, ties by area enlargement, then area.
		bestOverlap := math.Inf(1)
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, cr := range n.rects {
			union := cr.Union(r)
			var before, after float64
			for j, or := range n.rects {
				if j == i {
					continue
				}
				before += cr.OverlapArea(or)
				after += union.OverlapArea(or)
			}
			overlapEnl := after - before
			enl := union.Area() - cr.Area()
			area := cr.Area()
			if overlapEnl < bestOverlap ||
				(overlapEnl == bestOverlap && enl < bestEnl) ||
				(overlapEnl == bestOverlap && enl == bestEnl && area < bestArea) {
				bestOverlap, bestEnl, bestArea, best = overlapEnl, enl, area, i
			}
		}
		return best
	}
	// Minimize area enlargement, ties by area.
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, cr := range n.rects {
		enl := cr.Enlargement(r)
		area := cr.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

// adjustPath grows the MBRs along the path to cover r.
func (t *Tree) adjustPath(path []*node, r Rect) {
	for i := 0; i < len(path)-1; i++ {
		parent := path[i]
		child := path[i+1]
		for j, c := range parent.children {
			if c == child {
				parent.rects[j].unionInPlace(r)
				break
			}
		}
	}
}

// mbr recomputes the bounding rectangle of all entries of n.
func (n *node) mbr() Rect {
	out := n.rects[0].Clone()
	for _, r := range n.rects[1:] {
		out.unionInPlace(r)
	}
	return out
}

// reinsert removes the p entries of n farthest from its center and
// reinserts them (R* forced reinsert, p = 30% of M).
func (t *Tree) reinsert(n *node, ancestors []*node) {
	t.stats.Reinserts++
	p := len(n.rects) * 3 / 10
	if p < 1 {
		p = 1
	}
	center := n.mbr().Center()
	type distEntry struct {
		idx  int
		dist float64
	}
	des := make([]distEntry, len(n.rects))
	for i, r := range n.rects {
		c := r.Center()
		var d float64
		for j := range c {
			dd := c[j] - center[j]
			d += dd * dd
		}
		des[i] = distEntry{i, d}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].dist > des[j].dist })
	removed := map[int]bool{}
	for _, de := range des[:p] {
		removed[de.idx] = true
	}
	var keepRects []Rect
	var keepChildren []*node
	var keepItems []Item
	var reRects []Rect
	var reChildren []*node
	var reItems []Item
	for i, r := range n.rects {
		if removed[i] {
			reRects = append(reRects, r)
			if n.leaf {
				reItems = append(reItems, n.items[i])
			} else {
				reChildren = append(reChildren, n.children[i])
			}
		} else {
			keepRects = append(keepRects, r)
			if n.leaf {
				keepItems = append(keepItems, n.items[i])
			} else {
				keepChildren = append(keepChildren, n.children[i])
			}
		}
	}
	n.rects = keepRects
	n.items = keepItems
	n.children = keepChildren
	t.tightenPath(ancestors, n)
	// Reinsert far entries (close reinsert: farthest first).
	for i := range reRects {
		if n.leaf {
			t.insertRect(reRects[i], reItems[i], nil, n.level)
		} else {
			// A child of a level-L node lives at level L-1 and must be
			// re-routed into some node at level L.
			t.insertRect(reRects[i], Item{}, reChildren[i], n.level)
		}
	}
}

// tightenPath recomputes MBRs on the ancestor path after removals.
func (t *Tree) tightenPath(ancestors []*node, child *node) {
	for i := len(ancestors) - 1; i >= 0; i-- {
		parent := ancestors[i]
		for j, c := range parent.children {
			if c == child {
				parent.rects[j] = child.mbr()
				break
			}
		}
		child = parent
	}
}

// splitNode splits an overflowing node with the R* split algorithm and
// propagates overflow upward.
func (t *Tree) splitNode(n *node, ancestors []*node) {
	t.stats.Splits++
	left, right := t.rstarSplit(n)
	if n == t.root {
		newRoot := &node{
			leaf:     false,
			level:    n.level + 1,
			rects:    []Rect{left.mbr(), right.mbr()},
			children: []*node{left, right},
		}
		t.root = newRoot
		return
	}
	parent := ancestors[len(ancestors)-1]
	// Replace n with left, append right.
	for j, c := range parent.children {
		if c == n {
			parent.children[j] = left
			parent.rects[j] = left.mbr()
			break
		}
	}
	parent.children = append(parent.children, right)
	parent.rects = append(parent.rects, right.mbr())
	t.tightenPath(ancestors[:len(ancestors)-1], parent)
	if len(parent.rects) > t.maxEntries {
		t.splitNode(parent, ancestors[:len(ancestors)-1])
	}
}

// rstarSplit partitions the entries of n into two nodes using the R*
// topological split: choose the axis minimizing total margin over all
// distributions, then the distribution minimizing overlap (ties: area).
func (t *Tree) rstarSplit(n *node) (*node, *node) {
	total := len(n.rects)
	m := t.minEntries
	bestAxisMargin := math.Inf(1)
	var bestOrder []int
	for axis := 0; axis < t.dim; axis++ {
		// Sort by lower then upper bound.
		order := make([]int, total)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := n.rects[order[a]], n.rects[order[b]]
			if ra.Lo[axis] != rb.Lo[axis] {
				return ra.Lo[axis] < rb.Lo[axis]
			}
			return ra.Hi[axis] < rb.Hi[axis]
		})
		var marginSum float64
		for split := m; split <= total-m; split++ {
			l := n.rects[order[0]].Clone()
			for _, idx := range order[1:split] {
				l.unionInPlace(n.rects[idx])
			}
			r := n.rects[order[split]].Clone()
			for _, idx := range order[split+1:] {
				r.unionInPlace(n.rects[idx])
			}
			marginSum += l.Margin() + r.Margin()
		}
		if marginSum < bestAxisMargin {
			bestAxisMargin = marginSum
			bestOrder = order
		}
	}
	// Choose split index minimizing overlap, ties by combined area.
	bestSplit := m
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for split := m; split <= total-m; split++ {
		l := n.rects[bestOrder[0]].Clone()
		for _, idx := range bestOrder[1:split] {
			l.unionInPlace(n.rects[idx])
		}
		r := n.rects[bestOrder[split]].Clone()
		for _, idx := range bestOrder[split+1:] {
			r.unionInPlace(n.rects[idx])
		}
		overlap := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, bestSplit = overlap, area, split
		}
	}
	left := &node{leaf: n.leaf, level: n.level}
	right := &node{leaf: n.leaf, level: n.level}
	for pos, idx := range bestOrder {
		dst := left
		if pos >= bestSplit {
			dst = right
		}
		dst.rects = append(dst.rects, n.rects[idx])
		if n.leaf {
			dst.items = append(dst.items, n.items[idx])
		} else {
			dst.children = append(dst.children, n.children[idx])
		}
	}
	return left, right
}
