package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"warping/internal/core"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// Entry is one (id, series) pair for bulk loading.
type Entry struct {
	ID     int64
	Series ts.Series
}

// BulkLoad builds an index from a static collection in one pass: feature
// vectors are computed in parallel across CPUs, the R*-tree is packed with
// Sort-Tile-Recursive bulk loading, which both builds faster and clusters
// better (fewer page accesses per query) than repeated Add calls, and the
// series column is sized up front and written once, in the order the
// tree's leaves hold the items (repack). IDs must be unique and every series
// must have length t.InputLen(); the order of entries does not matter.
func BulkLoad(t core.Transform, cfg Config, entries []Entry) (*Index, error) {
	ix, err := newIndex(t, cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.bulkLoad(entries); err != nil {
		_ = ix.Close()
		return nil, err
	}
	return ix, nil
}

// BulkAdd fills a fresh index (nothing ever added; anything else is an
// error) as BulkLoad describes. This is the one build path of a served
// corpus — first build, snapshot load and WAL recovery alike. After an error
// the index is unusable and must be Closed.
func (ix *Index) BulkAdd(entries []Entry) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.bulkLoad(entries)
}

// bulkLoad fills a fresh index (nothing ever added) as BulkLoad describes.
// Invalid entries are rejected before anything changes; a failed paged
// append leaves the spill files torn, so the caller must Close the index.
func (ix *Index) bulkLoad(entries []Entry) error {
	if len(ix.st.ids) != 0 {
		return fmt.Errorf("index: bulk load into a non-empty index (%d slots)", len(ix.st.ids))
	}
	if len(entries) == 0 {
		return nil
	}
	t, n := ix.transform, ix.st.n
	seen := make(map[int64]struct{}, len(entries))
	for i, e := range entries {
		if len(e.Series) != n {
			return fmt.Errorf("index: entry %d has length %d, want %d", i, len(e.Series), n)
		}
		if _, dup := seen[e.ID]; dup {
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		seen[e.ID] = struct{}{}
	}

	// Parallel feature extraction, once per entry: the tree pack is the
	// vectors' only owner from then on.
	items := make([]rtree.Item, len(entries))
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(entries) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(entries); lo += chunk {
		hi := lo + chunk
		if hi > len(entries) {
			hi = len(entries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				items[i] = rtree.Item{ID: entries[i].ID, Slot: int32(i), Point: t.Apply(entries[i].Series)}
			}
		}(lo, hi)
	}
	wg.Wait()
	return ix.repack(items, func(_ *corpusReader, i int) (ts.Series, error) {
		return entries[i].Series, nil
	})
}

// repack rebuilds corpus and tree together, in R*-tree leaf order. items are
// the records to keep, in any order: ID, feature vector, and in Slot the key
// by which series finds the record's series (through a reader over the corpus
// being replaced, which repack holds for the length of the rewrite); nothing
// is computed here. The STR pack that builds the tree also decides where the
// records go: walking its leaves, the record met r-th is written to slot r of
// a fresh series column (RAM arena and page file alike), its point copied to
// row r of one fresh block, and its item retagged with r. So one leaf's M
// entries occupy ⌈M / perPage⌉ neighbouring series pages, and a query's
// candidates — which come leaf by leaf — are verified from pages next to
// each other, while a RAM leaf's points are one contiguous row for the
// walker to scan. It is the one routine
// behind every bulk-built structure: first build (bulkLoad) and, through
// repackLive, RAM compaction, paged delta merge and paged compaction.
// Append-order slots exist only for records added since (the RAM tree's
// later inserts, the paged delta's tail).
//
// In paged mode the tree is packed at the page-capacity node size and
// serialized as the new immutable base, and the delta starts empty.
// All-or-nothing: the old column, slots, base and delta stand until every
// write has succeeded, and are released only then — except that an empty
// corpus lends its own (empty) column, which an error leaves torn.
func (ix *Index) repack(items []rtree.Item, series func(r *corpusReader, key int) (ts.Series, error)) error {
	st := &ix.st
	m, dim := len(items), ix.transform.OutputLen()
	var tcfg rtree.Config
	if ix.sp != nil {
		tcfg = rtree.Config{MaxEntries: rtree.PageCapacity(dim, ix.sp.PageSize())}
	}
	tree := rtree.BulkLoad(dim, tcfg, items)

	fresh := newCorpus(st.n)
	fresh.slots = make(map[int64]int32, m)
	fresh.ids = make([]int64, 0, m)
	fresh.alive = make([]bool, 0, m)
	points := make([]float64, 0, m*dim)
	var err error
	switch {
	case ix.sp == nil:
		fresh.xs = make([]float64, 0, m*st.n)
	case len(st.ids) == 0:
		fresh.col = st.col
	default:
		if fresh.col, err = ix.sp.NewColumn(st.n); err != nil {
			return err
		}
	}
	r := st.reader()
	tree.Relabel(func(it *rtree.Item) {
		if err != nil {
			return
		}
		// put copies into the target page while the source page stays pinned
		// by the reader's cursor; the pool handles both pins.
		var x ts.Series
		if x, err = series(&r, int(it.Slot)); err == nil {
			it.Slot, err = fresh.put(it.ID, x)
		}
		points = append(points, it.Point...)
		it.Point = points[len(points)-dim : len(points) : len(points)]
	})
	r.release()
	var base *rtree.PagedTree
	if err == nil && ix.sp != nil {
		// WritePaged copies ids, slots and point values into leaf pages, so
		// the packed RAM tree and the block its points sit in are garbage after.
		base, err = rtree.WritePaged(tree, ix.sp)
		tree = rtree.New(dim, rtree.Config{})
	}
	if err != nil {
		if fresh.col != st.col {
			_ = fresh.close()
		}
		return err
	}
	if st.col != fresh.col {
		_ = st.close()
	}
	if ix.ptree != nil {
		_ = ix.ptree.Close(ix.sp)
	}
	ix.st, ix.tree, ix.ptree = fresh, tree, base
	return nil
}

// repackLive repacks the index's own live records — in paged mode base and
// delta alike — dropping tombstones. Each record's feature vector is read
// back from the tree that holds it, never recomputed, and the records are
// handed over in slot order, whichever tree held them.
func (ix *Index) repackLive() error {
	items := make([]rtree.Item, 0, ix.st.len())
	keep := func(it rtree.Item) {
		if ix.st.alive[it.Slot] {
			items = append(items, it)
		}
	}
	ix.tree.Visit(keep)
	if ix.ptree != nil {
		if err := ix.ptree.VisitLeaves(keep); err != nil {
			return err
		}
	}
	slices.SortFunc(items, func(a, b rtree.Item) int { return cmp.Compare(a.Slot, b.Slot) })
	return ix.repack(items, (*corpusReader).series)
}
