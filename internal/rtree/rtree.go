package rtree

import (
	"fmt"
	"math"
	"slices"

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
	// FrontierPushes counts the entries a best-first traversal put on its
	// frontier: each child node within its bound, and each opened leaf's
	// cursor once for every entry of the leaf that surfaces (NNIter).
	FrontierPushes int
}

// Item is a stored object: an identifier and its point in feature space.
type Item struct {
	ID    int64
	Point []float64
}

// Entries is a run of leaf entries in the one layout an entry has: dim+2
// 32-bit words each, the point's coordinates as float32s and then the id's
// low and high halves (the layout of SQLite's R-tree cell, an 8-byte id
// beside an even number of 4-byte coordinates). A RAM leaf is its run of the
// tree's block, a leaf page holds its entries after its meta word, word for
// word, and a caller's flat delta is one more run, which NNIterOn ranks
// as a leaf's entries are ranked. An entry's position is where it lies: in a
// tree, its leaf's first position plus its index there.
//
// A coordinate is stored as its nearest float32 (a finite one beyond
// float32's range as the largest finite float32 of its sign), and the run
// keeps, per dimension, the largest rounding error of the points appended to
// it: its slack. A search widens its query box by the slack, so the stored
// point's distance to the widened box is never above the given point's
// distance to the box (Rect.widen).
type Entries struct {
	dim   int
	w     []uint32
	slack []float64 // per dimension; nil while every coordinate was stored exactly
}

// NewEntries returns an empty run of entries over points of dimension dim.
func NewEntries(dim int) Entries { return Entries{dim: dim} }

// Append adds the entry (id, p) at the end of the run, p rounded to float32.
func (e *Entries) Append(id int64, p []float64) {
	for d, c := range p {
		s := float32(c)
		if math.IsInf(float64(s), 0) && !math.IsInf(c, 0) {
			s = float32(math.Copysign(math.MaxFloat32, c))
		}
		if err := distUp(c, float64(s)); err > 0 {
			if e.slack == nil {
				e.slack = make([]float64, e.dim)
			}
			e.slack[d] = max(e.slack[d], err)
		}
		e.w = append(e.w, math.Float32bits(s))
	}
	e.w = append(e.w, uint32(id), uint32(uint64(id)>>32))
}

// Extend appends o's entries to the run, and takes the larger slack in each
// dimension.
func (e *Entries) Extend(o Entries) {
	e.w = append(e.w, o.w...)
	e.slack = maxSlack(e.slack, o.slack)
}

// maxSlack returns the larger of a and b in each dimension, in a's storage
// or a fresh slice; nil for nil.
func maxSlack(a, b []float64) []float64 {
	if b == nil {
		return a
	}
	if a == nil {
		return slices.Clone(b)
	}
	for d := range a {
		a[d] = max(a[d], b[d])
	}
	return a
}

// Len returns the number of entries.
func (e Entries) Len() int { return len(e.w) / (e.dim + 2) }

// Item returns entry i, its Point the stored coordinates as float64s.
func (e Entries) Item(i int) Item {
	return Item{ID: e.id(i), Point: e.widened(make([]float64, e.dim), i)}
}

func (e Entries) point(i int) []uint32 {
	off := i * (e.dim + 2)
	return e.w[off : off+e.dim : off+e.dim]
}

// widened writes entry i's coordinates into dst as float64s, exactly, and
// returns it.
func (e Entries) widened(dst []float64, i int) []float64 {
	for d, c := range e.point(i) {
		dst[d] = float64(math.Float32frombits(c))
	}
	return dst
}

func (e Entries) id(i int) int64 {
	off := i*(e.dim+2) + e.dim
	return int64(uint64(e.w[off]) | uint64(e.w[off+1])<<32)
}

type node struct {
	leaf     bool
	level    int         // 0 = leaf
	rects    []Rect      // internal node: its children's boxes
	children []*node     // internal node
	ents     Entries     // RAM leaf: its entries, its run of the tree's block
	src      []packEntry // leaf while Pack builds it: its entries' indices in the run
	first    int         // leaf: the position of its first entry
	page     uint64      // paged leaf: the page its entries are written to
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
	root       *node     // nil when empty
	maxEntries int       // M
	minEntries int       // m
	slack      []float64 // the largest rounding error of a stored coordinate, per dimension (Entries)
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
	run := NewEntries(t.dim)
	run.Append(id, point)
	stored := PointRect(run.widened(make([]float64, t.dim), 0))
	n := t.root
	for !n.leaf {
		best := 0
		for i := range n.rects {
			if n.rects[i].SquaredMinDist(point) < n.rects[best].SquaredMinDist(point) {
				best = i
			}
		}
		n.rects[best].unionInPlace(stored)
		n = n.children[best]
	}
	n.ents.w = append(n.ents.w, run.w...) // a packed leaf's run is capped, so this moves it off the block
	t.slack = maxSlack(t.slack, run.slack)
	t.size++
}
