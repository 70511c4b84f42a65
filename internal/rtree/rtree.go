package rtree

import (
	"fmt"

	"warping/internal/pager"
)

// Config controls tree shape.
type Config struct {
	// MaxEntries is the node capacity M. If zero, it is PageCapacity at
	// pager.DefaultPageSize: the M of a paged tree on the default page, so a
	// tree packs to the same shape in RAM and out of core. The minimum fill m
	// is derived from it: 40 % of M, at least 2 and at most M/2.
	MaxEntries int
}

// Stats accumulates a search's cost counters: pass a *Stats to the search.
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
	page     uint64  // paged trees: the page written for it; a leaf there holds nothing else
}

// Tree is an immutable STR-packed R-tree over points (BulkLoad), held in RAM
// or, written by WritePaged, with its leaves in a page file. Searches are
// read-pure — cost counters accumulate into a caller-provided per-query
// Stats — so any number may run concurrently. There is no insertion and no
// delete: the index package keeps what was added since the pack in a flat
// delta beside the tree, tombstones what it removes, and packs a fresh tree
// when either grows.
type Tree struct {
	dim        int
	size       int
	root       *node // nil when empty
	maxEntries int   // M
	minEntries int   // m
	f          *pager.File
	pool       *pager.Pool // whose frames the leaves of f are read through; nil in RAM
}

// PagedTree is the name the frozen benchmark compiles against for a tree
// WritePaged returned. It exists only for the benchmark (bench/sut.go), as
// pager's PinNew and FlushAll do; ROADMAP item 2a deletes it.
type PagedTree = Tree

// New creates an empty tree for points of the given dimensionality.
func New(dim int, cfg Config) *Tree {
	if dim < 1 {
		panic(fmt.Sprintf("rtree: invalid dimension %d", dim))
	}
	m := cfg.MaxEntries
	if m == 0 {
		m = PageCapacity(dim, pager.DefaultPageSize)
	}
	if m < 4 {
		panic(fmt.Sprintf("rtree: MaxEntries %d < 4", m))
	}
	return &Tree{dim: dim, maxEntries: m, minEntries: min(max(m*2/5, 2), m/2)}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the tree height (0 when empty).
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	return t.root.level + 1
}

// Insert adds a point to an in-RAM tree without splitting: it descends to
// the child of least MINDIST, appends to that leaf and widens the boxes
// above it. It exists only for the frozen benchmark's insert timing
// (bench/sut.go), as pager's PinNew and FlushAll do; ROADMAP item 2a
// deletes it. The point slice is retained.
func (t *Tree) Insert(id int64, point []float64) {
	if len(point) != t.dim {
		panic(fmt.Sprintf("rtree: point dim %d, tree dim %d", len(point), t.dim))
	}
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	n := t.root
	for !n.leaf {
		best := 0
		for i := range n.rects {
			if n.rects[i].SquaredMinDist(point) < n.rects[best].SquaredMinDist(point) {
				best = i
			}
		}
		n.rects[best].unionInPlace(PointRect(point))
		n = n.children[best]
	}
	n.items, n.rects, t.size = append(n.items, Item{ID: id, Point: point}), append(n.rects, PointRect(point)), t.size+1
}

// mbr recomputes the bounding rectangle of all entries of n.
func (n *node) mbr() Rect {
	out := n.rects[0].Clone()
	for _, r := range n.rects[1:] {
		out.unionInPlace(r)
	}
	return out
}
