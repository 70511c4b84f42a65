package rtree

import (
	"fmt"
	"math"

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
type Item struct {
	ID    int64
	Point []float64
}

// Entries is a run of leaf entries in the one layout an entry has: dim+1
// float64 words each, the point's coordinates and then the id's bits (the
// layout of SQLite's R-tree cell, an id beside its coordinates). A RAM leaf
// is its run of the tree's block, a leaf page holds its entries after its
// meta word, word for word, and a caller's flat delta is one more run, which
// NNIter.Push ranks as a leaf's entries are ranked. An entry's position is
// where it lies: in a tree, its leaf's first position plus its index there.
type Entries struct {
	dim int
	w   []float64
}

// NewEntries returns an empty run of entries over points of dimension dim.
func NewEntries(dim int) Entries { return Entries{dim: dim} }

// Append adds the entry (id, p) at the end of the run; p is copied.
func (e *Entries) Append(id int64, p []float64) {
	e.w = append(append(e.w, p...), math.Float64frombits(uint64(id)))
}

// Len returns the number of entries.
func (e Entries) Len() int { return len(e.w) / (e.dim + 1) }

// Item returns entry i, its Point a view of the run.
func (e Entries) Item(i int) Item { return Item{ID: e.id(i), Point: e.point(i)} }

func (e Entries) point(i int) []float64 {
	off := i * (e.dim + 1)
	return e.w[off : off+e.dim : off+e.dim]
}

func (e Entries) id(i int) int64 { return int64(math.Float64bits(e.w[i*(e.dim+1)+e.dim])) }

type node struct {
	leaf     bool
	level    int     // 0 = leaf
	rects    []Rect  // internal node: its children's boxes
	children []*node // internal node
	ents     Entries // RAM leaf: its entries, its run of the tree's block
	first    int     // leaf: the position of its first entry
	page     uint64  // paged leaf: the page its entries are written to
}

// Tree is an immutable STR-packed R-tree over points (BulkLoad), held in RAM
// or, written by WritePaged, with its leaves in a page file. Searches are
// read-pure — cost counters accumulate into a caller-provided per-query
// Stats — so any number may run concurrently. There is no insertion and no
// delete: the index package keeps what was added since the pack in a flat
// delta beside the tree, and packs a fresh tree when the delta grows.
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

// Insert adds a point to an in-RAM tree without splitting: it descends to
// the child of least MINDIST, appends to that leaf and widens the boxes
// above it. It exists only for the frozen benchmark's insert timing
// (bench/sut.go), which reads ids alone, as pager's PinNew and FlushAll do;
// ROADMAP item 2a deletes it. Positions are undefined after an Insert. The
// point is copied.
func (t *Tree) Insert(id int64, point []float64) {
	if len(point) != t.dim {
		panic(fmt.Sprintf("rtree: point dim %d, tree dim %d", len(point), t.dim))
	}
	if t.root == nil {
		t.root = &node{leaf: true, ents: NewEntries(t.dim)}
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
	n.ents.Append(id, point) // a packed leaf's run is capped, so this moves it off the block
	t.size++
}

// mbr computes the bounding rectangle of all entries of n: its points, or
// its children's boxes.
func (n *node) mbr() Rect {
	if n.leaf {
		out := PointRect(n.ents.point(0)).Clone()
		for i := 1; i < n.ents.Len(); i++ {
			out.unionInPlace(PointRect(n.ents.point(i)))
		}
		return out
	}
	out := n.rects[0].Clone()
	for _, r := range n.rects[1:] {
		out.unionInPlace(r)
	}
	return out
}
