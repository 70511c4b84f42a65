package rtree

// Delete removes the item with the given id stored at the given point. It
// returns false when no such item exists. Underflowing nodes are dissolved
// and their remaining items reinserted (the classic R-tree CondenseTree),
// and the root is collapsed when it loses all but one child.
func (t *Tree) Delete(id int64, point []float64) bool {
	if len(point) != t.dim {
		panic("rtree: point dimension mismatch")
	}
	path, idx := t.findLeaf(point, id)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.rects = append(leaf.rects[:idx], leaf.rects[idx+1:]...)
	leaf.items = append(leaf.items[:idx], leaf.items[idx+1:]...)
	t.condense(path)
	t.size--
	return true
}

// findLeaf locates the leaf containing (id, point), returning the root-to-
// leaf path and the entry index, or (nil, 0) when absent.
func (t *Tree) findLeaf(point []float64, id int64) ([]*node, int) {
	var path []*node
	var walk func(n *node) int
	walk = func(n *node) int {
		path = append(path, n)
		if n.leaf {
			for i, it := range n.items {
				if it.ID != id {
					continue
				}
				same := true
				for d, v := range it.Point {
					if v != point[d] {
						same = false
						break
					}
				}
				if same {
					return i
				}
			}
			path = path[:len(path)-1]
			return -1
		}
		for i, child := range n.children {
			if n.rects[i].Contains(point) {
				if idx := walk(child); idx >= 0 {
					return idx
				}
			}
		}
		path = path[:len(path)-1]
		return -1
	}
	idx := walk(t.root)
	if idx < 0 {
		return nil, 0
	}
	return path, idx
}

// condense walks the path bottom-up after a removal: underflowing non-root
// nodes are detached and their leaf items collected for reinsertion;
// surviving nodes have their parent rectangles tightened.
func (t *Tree) condense(path []*node) {
	var orphans []Item
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		pos := -1
		for j, c := range parent.children {
			if c == n {
				pos = j
				break
			}
		}
		if pos < 0 {
			// Node was already detached along with an ancestor.
			continue
		}
		if len(n.rects) < t.minEntries {
			parent.children = append(parent.children[:pos], parent.children[pos+1:]...)
			parent.rects = append(parent.rects[:pos], parent.rects[pos+1:]...)
			n.collectItems(&orphans)
		} else {
			parent.rects[pos] = n.mbr()
		}
	}
	// Collapse a chain of single-child internal roots.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, level: 0}
	}
	// Reinsert orphaned items through the normal insertion path.
	for _, it := range orphans {
		t.reinLvl = map[int]bool{}
		t.insertItem(it, 0)
	}
}

// collectItems appends every leaf item under n to out.
func (n *node) collectItems(out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		c.collectItems(out)
	}
}
