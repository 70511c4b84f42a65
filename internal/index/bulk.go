package index

import (
	"fmt"
	"runtime"
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
// corpus columns are sized up front and written once, in the order the
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
	t, n := ix.st.transform, ix.st.n
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

	// Parallel feature extraction, once per entry: the vectors feed the tree
	// pack and go to their column as they are.
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
// fresh columns (RAM arenas and page files alike) and its item retagged with
// r, so one leaf's M entries occupy ⌈M / perPage⌉ neighbouring series pages,
// and a query's candidates — which come leaf by leaf — are verified from
// pages next to each other. It is the one routine
// behind every bulk-built structure: first build (bulkLoad) and, through
// repackLive, RAM compaction, paged delta merge and paged compaction.
// Append-order slots exist only for records added since (the RAM tree's
// later inserts, the paged delta's tail).
//
// In paged mode the tree is packed at the page-capacity node size and
// serialized as the new immutable base, and the delta starts empty.
// All-or-nothing: the old columns, slots, base and delta stand until every
// write has succeeded, and are released only then — except that an empty
// corpus lends its own (empty) columns, which an error leaves torn.
func (ix *Index) repack(items []rtree.Item, series func(r *corpusReader, key int) (ts.Series, error)) error {
	st := &ix.st
	m := len(items)
	var tcfg rtree.Config
	if st.paged != nil {
		tcfg = rtree.Config{MaxEntries: rtree.PageCapacity(st.dim, st.paged.sp.PageSize())}
	}
	tree := rtree.BulkLoad(st.dim, tcfg, items)

	fresh := newCorpus(st.transform, 0)
	fresh.slots = make(map[int64]int32, m)
	fresh.ids = make([]int64, 0, m)
	fresh.alive = make([]bool, 0, m)
	var err error
	switch {
	case st.paged == nil:
		fresh.xs = make([]float64, 0, m*st.n)
		fresh.fs = make([]float64, 0, m*st.dim)
	case len(st.ids) == 0:
		fresh.paged = st.paged
	default:
		if fresh.paged, err = fresh.newPagedCols(st.paged.sp); err != nil {
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
			it.Point, it.Slot, err = fresh.put(it.ID, x, it.Point)
		}
	})
	r.release()
	var base *rtree.PagedTree
	if err == nil && fresh.paged != nil {
		// WritePaged copies ids, slots and point values into leaf pages, so
		// the packed RAM tree and the vectors it references are garbage after.
		base, err = rtree.WritePaged(tree, fresh.paged.sp)
		tree = rtree.New(st.dim, rtree.Config{})
	}
	if err != nil {
		if fresh.paged != st.paged {
			_ = fresh.close()
		}
		return err
	}
	if st.paged != fresh.paged {
		_ = st.close()
	}
	if ix.ptree != nil {
		_ = ix.ptree.Close(fresh.paged.sp)
	}
	ix.st, ix.tree, ix.ptree = fresh, tree, base
	return nil
}

// repackLive repacks the index's own live records — in paged mode base and
// delta alike — dropping tombstones.
func (ix *Index) repackLive() error {
	items := make([]rtree.Item, 0, ix.st.len())
	err := ix.st.visitFeats(func(slot int32, id int64, feat []float64) {
		items = append(items, rtree.Item{ID: id, Slot: slot, Point: feat})
	})
	if err != nil {
		return err
	}
	return ix.repack(items, (*corpusReader).series)
}
