package rtree

import (
	"fmt"

	"warping/internal/pager"
)

// Paged R*-tree: an immutable tree whose leaves are serialized one-per-page
// into a pager file. Leaf layout in the page payload (uint64 words, after
// the 16-byte checksummed page header):
//
//	word 0: meta = leaf(1 bit) | level<<1 (15 bits) | count<<16 (16 bits) |
//	        dim<<32 (16 bits)
//	entry i, at 1+i*(dim+2):
//	        point[dim] | item id (int64 bits) | item slot
//
// All entries are fixed width, so capacity is a pure function of page size
// and dimensionality (PageCapacity) — leaf = page, the paper's accounting
// unit, now for real. Upper levels (every internal node) are ordinary heap
// nodes from build time on — they are a tiny fraction of the tree — and are
// never written, while each leaf is a stub naming its page, pinned on
// demand, so leaf visits are the real I/O. A leaf page is the only copy of
// its points out of core.
//
// The paged tree is immutable: the index layers mutation on top as an
// in-RAM delta tree plus tombstones, merging into a fresh paged tree at
// compaction. Items returned from searches carry a nil Point (ID and Slot
// are what a query needs); VisitLeaves copies the points out.

// PageCapacity returns the node capacity M for the given dimensionality and
// page size: the larger of 4 and the count fitting both node layouts — a
// leaf page, and an internal node's Lo, Hi and child page id per entry.
// Only leaves are written, so the internal term now only fixes the tree's
// shape (and with it the leaf-order layout and every counter); ROADMAP item
// 6's leaf-fill leftover revisits it.
func PageCapacity(dim, pageSize int) int {
	payloadWords := (pageSize - 16) / 8
	mInternal := (payloadWords - 1) / (2*dim + 1)
	mLeaf := (payloadWords - 1) / (dim + 2)
	m := mInternal
	if mLeaf < m {
		m = mLeaf
	}
	if m < 4 {
		m = 4
	}
	return m
}

// PagedTree is an immutable page-resident R*-tree: heap internal nodes over
// leaf stubs that name their page, searched by the same walkers as a Tree.
type PagedTree struct {
	dim  int
	f    *pager.File
	pool *pager.Pool
	size int
	root *node // nil when empty
}

// WritePaged serializes t into a fresh page file of sp and returns the
// paged tree. t's node capacity must not exceed PageCapacity for sp's page
// size (build the tree with that capacity). t itself is untouched.
func WritePaged(t *Tree, sp *pager.Space) (*PagedTree, error) {
	capacity := PageCapacity(t.dim, sp.PageSize())
	f, err := sp.NewFile(pager.KindRTree)
	if err != nil {
		return nil, err
	}
	pt := &PagedTree{dim: t.dim, f: f, pool: sp.Pool(), size: t.size}
	if t.size == 0 {
		return pt, nil
	}
	if pt.root, err = pt.writeNode(t.root, capacity); err != nil {
		_ = sp.Remove(f)
		return nil, err
	}
	return pt, nil
}

// writeNode returns the node that stands for n in the paged tree: a heap
// copy of an internal node over its children's stand-ins, or for a leaf a
// stub carrying only the page id it is serialized to. Leaves are written in
// leaf order, so leaf r is page r.
func (pt *PagedTree) writeNode(n *node, capacity int) (*node, error) {
	count := len(n.rects)
	if count > capacity {
		return nil, fmt.Errorf("rtree: node with %d entries exceeds page capacity %d", count, capacity)
	}
	out := &node{leaf: n.leaf, level: n.level}
	if !n.leaf {
		out.rects = make([]Rect, count)
		out.children = make([]*node, count)
		for i, c := range n.children {
			child, err := pt.writeNode(c, capacity)
			if err != nil {
				return nil, err
			}
			out.rects[i] = n.rects[i].Clone()
			out.children[i] = child
		}
		return out, nil
	}
	out.page = pt.f.Allocate()
	fr, err := pt.pool.PinNew(pt.f, out.page)
	if err != nil {
		return nil, err
	}
	wd, fl := fr.Words(), fr.Floats()
	wd[0] = encodeMeta(true, 0, count, pt.dim)
	d := pt.dim
	for i, it := range n.items {
		off := 1 + i*(d+2)
		copy(fl[off:off+d], it.Point)
		wd[off+d] = uint64(it.ID)
		wd[off+d+1] = uint64(uint32(it.Slot))
	}
	pt.pool.Unpin(fr) // PinNew left it dirty; eviction or flush writes it
	return out, nil
}

func encodeMeta(leaf bool, level, count, dim int) uint64 {
	m := uint64(level)<<1 | uint64(count)<<16 | uint64(dim)<<32
	if leaf {
		m |= 1
	}
	return m
}

func decodeMeta(m uint64) (leaf bool, level, count, dim int) {
	return m&1 == 1, int(m >> 1 & 0x7FFF), int(m >> 16 & 0xFFFF), int(m >> 32 & 0xFFFF)
}

// Len returns the number of stored items.
func (pt *PagedTree) Len() int { return pt.size }

// Dim returns the point dimensionality.
func (pt *PagedTree) Dim() int { return pt.dim }

// Height returns the tree height (0 when empty).
func (pt *PagedTree) Height() int {
	if pt.root == nil {
		return 0
	}
	return pt.root.level + 1
}

// Close removes the backing file; the tree is unusable afterwards.
func (pt *PagedTree) Close(sp *pager.Space) error {
	if pt.f == nil {
		return nil
	}
	err := sp.Remove(pt.f)
	pt.f = nil
	return err
}

// pinLeaf pins a leaf page, validates its meta, and returns a view of it.
// Counts one node access, and a page miss when the pool had to read disk.
func (pt *PagedTree) pinLeaf(pid uint64, st *Stats) (leafView, error) {
	fr, miss, err := pt.pool.Pin(pt.f, pid)
	if err != nil {
		return leafView{}, err
	}
	st.NodeAccesses++
	if miss {
		st.PageMisses++
	}
	wd := fr.Words()
	leaf, _, count, dim := decodeMeta(wd[0])
	if !leaf || dim != pt.dim || count < 0 || 1+count*(pt.dim+2) > len(wd) {
		pt.pool.Unpin(fr)
		return leafView{}, fmt.Errorf("rtree: page %d is not a valid leaf (meta %#x)", pid, wd[0])
	}
	return leafView{fr: fr, pool: pt.pool, fl: fr.Floats(), wd: wd, dim: dim, count: count}, nil
}

// RangeSearchInto appends all items within radius of the query rect to dst.
// Returned Items carry nil Points. Internal levels count as logical node
// accesses; leaf pins through the pool count misses as real I/O.
func (pt *PagedTree) RangeSearchInto(q Rect, radius float64, dst []Item, st *Stats) ([]Item, error) {
	if pt.size == 0 {
		return dst, nil
	}
	return rangeSearch(pt.root, pt, pt.dim, q, radius, dst, st)
}

// NNIter starts a best-first traversal; pages are pinned only while a leaf
// is expanded. st may be nil. Check Err once Next reports exhaustion.
func (pt *PagedTree) NNIter(q Rect, st *Stats) NNIter {
	return newNNIter(pt.root, pt, pt.dim, q, st)
}

// VisitLeaves walks every leaf item in leaf order, each with a copy of its
// point that fn may retain.
func (pt *PagedTree) VisitLeaves(fn func(Item)) error {
	if pt.size == 0 {
		return nil
	}
	return visit(pt.root, pt, fn)
}
