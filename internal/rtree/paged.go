package rtree

import (
	"fmt"

	"warping/internal/pager"
)

// Paged tree: a Tree whose leaves are serialized one-per-page into a pager
// file. Leaf layout in the page payload (after the 16-byte checksummed page
// header):
//
//	uint64 word 0: meta = leaf(1 bit) | level<<1 (15 bits) |
//	        count<<16 (16 bits) | dim<<32 (16 bits)
//	entry i, at 32-bit word 2+i*(dim+2):
//	        point[dim] (float32) | item id (low, high 32 bits)
//
// The entries are the leaf's Entries, the RAM leaf's run of the tree's block
// copied word for word; an entry's position is its leaf's first position,
// which the leaf's stub keeps, plus i. All entries are fixed width, so
// capacity is a pure function of page size and dimensionality
// (PageCapacity) — leaf = page, the paper's accounting unit, now for real.
// Upper levels (every internal node) are ordinary heap nodes from build time
// on — they are a tiny fraction of the tree — and are never written, while
// each leaf is a stub naming its page, pinned on demand, so leaf visits are
// the real I/O. A leaf page is the only copy of its points out of core.
//
// Like every Tree it is immutable: the index layers additions on top as a
// flat delta, merging it into a fresh tree when it grows.

// PageCapacity returns the node capacity M for the given dimensionality and
// page size: the number of entries a leaf page holds, (payload32 − 2) /
// (dim + 2) in 32-bit words, and never below 4 — 113 at dim 16 and 204 at
// dim 8 on an 8 KiB page. Only leaves are written; internal nodes are heap
// nodes, so their layout constrains nothing. The same M packs the tree in
// RAM (a zero Config takes it at pager.DefaultPageSize), so both modes
// build one shape.
func PageCapacity(dim, pageSize int) int {
	return max((payload32(pageSize)-2)/(dim+2), 4)
}

// payload32 is the number of 32-bit words a page holds after its header.
func payload32(pageSize int) int { return (pageSize - 16) / 4 }

// WritePaged serializes t, an in-RAM tree, into a fresh page file of sp and
// returns the paged tree: heap internal nodes over leaf stubs that name their
// page, searched by the same walker. A leaf of t's node capacity must fit one
// page: PageCapacity never goes below 4, so at a page too small for 4
// entries WritePaged returns an error. t itself is untouched. The file is
// written once, one page per leaf in leaf order, outside the buffer pool; its
// pages are read into the pool only when a search first pins them.
func WritePaged(t *Tree, sp *pager.Space) (*Tree, error) {
	if words, fit := 2+t.maxEntries*(t.dim+2), payload32(sp.PageSize()); words > fit {
		return nil, fmt.Errorf("rtree: a leaf of %d entries at dimension %d takes %d 32-bit words, a %d-byte page holds %d",
			t.maxEntries, t.dim, words, sp.PageSize(), fit)
	}
	f, err := sp.NewFile(pager.KindRTree)
	if err != nil {
		return nil, err
	}
	pt := &Tree{dim: t.dim, size: t.size, maxEntries: t.maxEntries, minEntries: t.minEntries, slack: t.slack, f: f, pool: sp.Pool()}
	if t.root == nil {
		return pt, nil
	}
	if pt.root, err = pt.writeNode(t.root, sp.NewPage()); err != nil {
		_ = sp.Remove(f)
		return nil, err
	}
	return pt, nil
}

// writeNode returns the node that stands for n in the paged tree: a heap
// copy of an internal node over its children's stand-ins, or for a leaf a
// stub carrying only its first position and the page id it is written to,
// through the page buffer pg. Leaves are written in leaf order, so leaf r is
// page r.
func (pt *Tree) writeNode(n *node, pg *pager.Frame) (*node, error) {
	out := &node{leaf: n.leaf, level: n.level, first: n.first}
	if !n.leaf {
		out.rects = make([]Rect, len(n.rects))
		out.children = make([]*node, len(n.children))
		for i, c := range n.children {
			child, err := pt.writeNode(c, pg)
			if err != nil {
				return nil, err
			}
			out.rects[i] = n.rects[i].Clone()
			out.children[i] = child
		}
		return out, nil
	}
	wd := pg.Uint32s()
	if 2+len(n.ents.w) > len(wd) {
		return nil, fmt.Errorf("rtree: a leaf of %d entries exceeds its page's %d 32-bit words", n.ents.Len(), len(wd))
	}
	clear(wd)
	pg.Words()[0] = encodeMeta(true, 0, n.ents.Len(), pt.dim)
	copy(wd[2:], n.ents.w)
	var err error
	out.page, err = pt.f.AppendPage(pg)
	return out, err
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

// Close removes a paged tree's backing file from sp, its space; the tree is
// unusable afterwards. An in-RAM tree has nothing to release.
func (pt *Tree) Close(sp *pager.Space) error {
	if pt.f == nil {
		return nil
	}
	err := sp.Remove(pt.f)
	pt.f = nil
	return err
}

// pinLeaf pins leaf n's page, validates its meta, and returns a view of it.
// Counts one node access, and a page miss when the pool had to read disk.
func (pt *Tree) pinLeaf(n *node, st *Stats) (leafView, error) {
	fr, miss, err := pt.pool.Pin(pt.f, n.page)
	if err != nil {
		return leafView{}, err
	}
	st.NodeAccesses++
	if miss {
		st.PageMisses++
	}
	meta, wd := fr.Words()[0], fr.Uint32s()
	leaf, _, count, dim := decodeMeta(meta)
	if !leaf || dim != pt.dim || 2+count*(dim+2) > len(wd) {
		pt.pool.Unpin(fr)
		return leafView{}, fmt.Errorf("rtree: page %d is not a valid leaf (meta %#x)", n.page, meta)
	}
	ents := Entries{dim: dim, w: wd[2 : 2+count*(dim+2)]}
	return leafView{Entries: ents, first: n.first, fr: fr, pool: pt.pool}, nil
}

// VisitLeaves walks every leaf item in leaf order, the r-th at position r,
// each with a copy of its point that fn may retain.
func (pt *Tree) VisitLeaves(fn func(Item)) error {
	return visit(pt.root, pt, fn)
}
