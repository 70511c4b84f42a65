package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// Entry is one (id, series) pair for bulk loading.
type Entry struct {
	ID     int64
	Series ts.Series
}

// BulkLoad builds an index from a static collection in one pass: feature
// vectors are computed in parallel across CPUs, the base tree is packed with
// Sort-Tile-Recursive bulk loading, which builds in one pass where repeated
// Add calls would merge their delta again and again, and the
// series column is sized up front and written once, in the order the
// tree's leaves hold the items (repack). IDs must be unique and every series
// must have length t.InputLen(); the order of entries does not matter.
func BulkLoad(t core.Transform, cfg Config, entries []Entry) (*Index, error) {
	ix := New(t, cfg)
	if err := ix.bulkLoad(entries); err != nil {
		return nil, err
	}
	return ix, nil
}

// BulkAdd fills a fresh index (nothing ever added; anything else is an
// error) as BulkLoad describes. This is the one build path of a served
// corpus — first build, snapshot load and WAL recovery alike. After an error
// the index is as empty as before.
func (ix *Index) BulkAdd(entries []Entry) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.bulkLoad(entries)
}

// bulkLoad fills a fresh index (nothing ever added) as BulkLoad describes.
// Invalid entries are rejected before anything changes; a failed paged
// write changes nothing either (repack is all-or-nothing).
func (ix *Index) bulkLoad(entries []Entry) error {
	if len(ix.st.ids) != 0 {
		return fmt.Errorf("index: bulk load into a non-empty index (%d slots)", len(ix.st.ids))
	}
	if len(entries) == 0 {
		return nil
	}
	t := ix.transform
	seen := make(map[int64]struct{}, len(entries))
	for i, e := range entries {
		if err := ix.st.checkSeries(e.Series); err != nil {
			return fmt.Errorf("index: entry %d: %w", i, err)
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

// repack rebuilds corpus and base together, in the tree's leaf order. items are
// the records to keep, in any order: ID, feature vector, and in Slot the key
// by which series finds the record's series (through a reader over the corpus
// being replaced, which repack holds for the length of the rewrite); no
// feature vector is computed here. The STR pack that builds the tree also
// decides where the records go: walking its leaves, the record met r-th is
// written to slot r of a fresh series column (RAM arena and page file alike;
// out of core its shadow to slot r of a fresh shadow column), its point
// copied to row r of one fresh block, and its item retagged with r. So one
// leaf's M entries occupy ⌈M / perPage⌉ neighbouring pages of each column,
// and a query's candidates — which come leaf by leaf — are verified from
// pages next to each other, while a RAM leaf's points are one contiguous row
// for the walker to scan. It is the one routine behind every packed base:
// first build (bulkLoad) and, through repackLive, delta merge and
// compaction, in both modes. Append-order slots exist only for records added
// since (the delta's, in the arena's tail). The tree is packed at one page's
// node capacity — the pager's page out of core, the default page in RAM — so
// a corpus has the same shape in both modes, and the delta starts empty.
//
// In paged mode it is also the only writer of page files: each column and
// the tree's leaves are written once, front to back, outside the buffer
// pool. All-or-nothing: the old corpus, base and delta stand until every
// write has succeeded, and are released only then.
func (ix *Index) repack(items []rtree.Item, series func(r *corpusReader, key int) (ts.Series, error)) error {
	st := &ix.st
	m, dim := len(items), ix.transform.OutputLen()
	pageSize := pager.DefaultPageSize
	if ix.sp != nil {
		pageSize = ix.sp.PageSize()
	}
	tree := rtree.BulkLoad(dim, rtree.Config{MaxEntries: rtree.PageCapacity(dim, pageSize)}, items)

	fresh := newCorpus(st.n)
	fresh.slots = make(map[int64]int32, m)
	fresh.ids = make([]int64, 0, m)
	fresh.alive = make([]bool, 0, m)
	points := make([]float64, 0, m*dim)
	put := func(id int64, x ts.Series) (int32, error) { return fresh.put(id, x), nil }
	if ix.sp == nil {
		fresh.xs = make([]float64, 0, m*st.n)
	} else {
		if err := fresh.openColumns(ix.sp); err != nil {
			return err
		}
		put = fresh.spill
	}
	var err error
	r := st.reader()
	tree.Relabel(func(it *rtree.Item) {
		if err != nil {
			return
		}
		// put copies into the target column while the source page stays
		// pinned by the reader's cursor.
		var x ts.Series
		if x, err = series(&r, int(it.Slot)); err == nil {
			it.Slot, err = put(it.ID, x)
		}
		points = append(points, it.Point...)
		it.Point = points[len(points)-dim : len(points) : len(points)]
	})
	r.release()
	base := tree
	if err == nil && ix.sp != nil {
		// WritePaged copies ids, slots and point values into leaf pages, so
		// the packed RAM tree and the block its points sit in are garbage after.
		if err = fresh.seal(); err == nil {
			base, err = rtree.WritePaged(tree, ix.sp)
		}
	}
	if err != nil {
		_ = fresh.close()
		return err
	}
	_ = st.close()
	_ = ix.base.Close(ix.sp)
	ix.st, ix.base, ix.delta = fresh, base, nil
	return nil
}

// repackLive repacks the index's own live records — base and delta alike —
// dropping tombstones. Each record's feature vector is read back from the
// base or the delta that holds it, never recomputed, and the records are
// handed over in slot order, whichever held them.
func (ix *Index) repackLive() error {
	items := make([]rtree.Item, 0, ix.st.len())
	keep := func(it rtree.Item) {
		if ix.st.alive[it.Slot] {
			items = append(items, it)
		}
	}
	if err := ix.base.VisitLeaves(keep); err != nil {
		return err
	}
	for _, it := range ix.delta {
		keep(it)
	}
	slices.SortFunc(items, func(a, b rtree.Item) int { return cmp.Compare(a.Slot, b.Slot) })
	return ix.repack(items, (*corpusReader).series)
}
