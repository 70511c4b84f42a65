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

// BulkLoad builds an index from a static collection in one pass: both
// arena blocks of the columnar corpus are sized up front and filled
// directly (one series allocation and one feature allocation for the whole
// corpus, instead of per-entry slices), feature vectors are computed in
// parallel across CPUs, and the R*-tree is packed with Sort-Tile-Recursive
// bulk loading, which both builds faster and clusters better (fewer page
// accesses per query) than repeated Add calls. IDs must be unique and
// every series must have length t.InputLen().
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
	st := &ix.st
	t := st.transform
	n, dim := st.n, st.dim
	slots := make(map[int64]int32, len(entries))
	ids := make([]int64, len(entries))
	alive := make([]bool, len(entries))
	xs := make([]float64, len(entries)*n)
	fs := make([]float64, len(entries)*dim)
	cfs := make([]float64, len(entries)*st.cdim)
	for i, e := range entries {
		if len(e.Series) != n {
			return fmt.Errorf("index: entry %d has length %d, want %d", i, len(e.Series), n)
		}
		if _, dup := slots[e.ID]; dup {
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		slots[e.ID] = int32(i)
		ids[i] = e.ID
		alive[i] = true
		copy(xs[i*n:(i+1)*n], e.Series)
	}

	// Parallel feature extraction straight into the feature arena; the
	// tree items point into the arena, so queries touching a candidate's
	// feature vector and its neighbors stream one contiguous block.
	items := make([]rtree.Item, len(entries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(entries) {
		workers = len(entries)
	}
	var wg sync.WaitGroup
	chunk := (len(entries) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(entries) {
			hi = len(entries)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				feat := fs[i*dim : (i+1)*dim : (i+1)*dim]
				copy(feat, t.Apply(entries[i].Series))
				if st.coarse != nil {
					copy(cfs[i*st.cdim:(i+1)*st.cdim], st.coarse.Apply(entries[i].Series))
				}
				items[i] = rtree.Item{ID: entries[i].ID, Slot: int32(i), Point: feat}
			}
		}(lo, hi)
	}
	wg.Wait()

	st.slots, st.ids, st.alive = slots, ids, alive
	if st.paged == nil {
		st.xs, st.fs, st.cfs = xs, fs, cfs
		ix.tree = rtree.BulkLoad(dim, ix.cfg.Tree, items)
		return nil
	}

	// Out-of-core: the staged arenas stream into the page-backed columns and
	// become garbage, the tree is STR-packed at the page-capacity node size
	// and serialized as the paged base, and the in-RAM delta stays empty.
	// (The staging arenas briefly hold the whole corpus; bulk loads happen
	// at recovery/rebuild time, before any query-serving working set
	// exists.)
	paged := st.paged
	for i := range entries {
		if err := paged.xs.Append(xs[i*n : (i+1)*n]); err != nil {
			return err
		}
		if err := paged.fs.Append(fs[i*dim : (i+1)*dim]); err != nil {
			return err
		}
		if st.cdim > 0 {
			if err := paged.cfs.Append(cfs[i*st.cdim : (i+1)*st.cdim]); err != nil {
				return err
			}
		}
	}
	// WritePaged copies point values into node pages, so the staging arenas
	// (which items still reference) can be dropped right after.
	ram := rtree.BulkLoad(dim, rtree.Config{MaxEntries: rtree.PageCapacity(dim, paged.sp.PageSize())}, items)
	pt, err := rtree.WritePaged(ram, paged.sp)
	if err != nil {
		return err
	}
	ix.ptree = pt
	return nil
}
