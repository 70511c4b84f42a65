package rtree

import (
	"fmt"

	"warping/internal/pager"
)

// Paged tree: a Tree whose leaves are serialized one-per-page into a pager
// file. Leaf layout in the page payload (uint64 words, after the 16-byte
// checksummed page header):
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
// Like every Tree it is immutable: the index layers mutation on top as a
// flat delta plus tombstones, merging into a fresh tree at compaction.
// Items returned from searches carry a nil Point (ID and Slot are what a
// query needs); VisitLeaves copies the points out.

// PageCapacity returns the node capacity M for the given dimensionality and
// page size: the larger of 4 and the count fitting both node layouts — a
// leaf page, and an internal node's Lo, Hi and child page id per entry.
// Only leaves are written, so the internal term now only fixes the tree's
// shape (and with it the leaf-order layout and every counter), in RAM as out
// of core (a zero Config takes it at pager.DefaultPageSize); ROADMAP item
// 14's leaf-fill follow-up revisits it.
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

// WritePaged serializes t, an in-RAM tree, into a fresh page file of sp and
// returns the paged tree: heap internal nodes over leaf stubs that name their
// page, searched by the same walkers. t's node capacity must not exceed
// PageCapacity for sp's page size (build the tree with that capacity). t
// itself is untouched. The file is written once, one page per leaf in leaf
// order, outside the buffer pool; its pages are read into the pool only when
// a search first pins them.
func WritePaged(t *Tree, sp *pager.Space) (*Tree, error) {
	capacity := PageCapacity(t.dim, sp.PageSize())
	f, err := sp.NewFile(pager.KindRTree)
	if err != nil {
		return nil, err
	}
	pt := &Tree{dim: t.dim, size: t.size, maxEntries: t.maxEntries, minEntries: t.minEntries, f: f, pool: sp.Pool()}
	if t.root == nil {
		return pt, nil
	}
	if pt.root, err = pt.writeNode(t.root, capacity, sp.NewPage()); err != nil {
		_ = sp.Remove(f)
		return nil, err
	}
	return pt, nil
}

// writeNode returns the node that stands for n in the paged tree: a heap
// copy of an internal node over its children's stand-ins, or for a leaf a
// stub carrying only the page id it is written to, through the page buffer
// pg. Leaves are written in leaf order, so leaf r is page r.
func (pt *Tree) writeNode(n *node, capacity int, pg *pager.Frame) (*node, error) {
	count := len(n.rects)
	if count > capacity {
		return nil, fmt.Errorf("rtree: node with %d entries exceeds page capacity %d", count, capacity)
	}
	out := &node{leaf: n.leaf, level: n.level}
	if !n.leaf {
		out.rects = make([]Rect, count)
		out.children = make([]*node, count)
		for i, c := range n.children {
			child, err := pt.writeNode(c, capacity, pg)
			if err != nil {
				return nil, err
			}
			out.rects[i] = n.rects[i].Clone()
			out.children[i] = child
		}
		return out, nil
	}
	wd, fl := pg.Words(), pg.Floats()
	clear(wd)
	wd[0] = encodeMeta(true, 0, count, pt.dim)
	d := pt.dim
	for i, it := range n.items {
		off := 1 + i*(d+2)
		copy(fl[off:off+d], it.Point)
		wd[off+d] = uint64(it.ID)
		wd[off+d+1] = uint64(uint32(it.Slot))
	}
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

// pinLeaf pins a leaf page, validates its meta, and returns a view of it.
// Counts one node access, and a page miss when the pool had to read disk.
func (pt *Tree) pinLeaf(pid uint64, st *Stats) (leafView, error) {
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

// VisitLeaves walks every leaf item in leaf order, each with a point that fn
// may retain: the tree's own in RAM (fn must not modify it), a copy read out
// of a paged leaf.
func (pt *Tree) VisitLeaves(fn func(Item)) error {
	return visit(pt.root, pt, fn)
}
