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
	st := newCorpus(t, 0)
	n, dim := st.n, st.dim
	st.slots = make(map[int64]int32, len(entries))
	st.ids = make([]int64, len(entries))
	st.alive = make([]bool, len(entries))
	st.xs = make([]float64, len(entries)*n)
	st.fs = make([]float64, len(entries)*dim)
	st.cfs = make([]float64, len(entries)*st.cdim)
	for i, e := range entries {
		if len(e.Series) != n {
			return nil, fmt.Errorf("index: entry %d has length %d, want %d", i, len(e.Series), n)
		}
		if _, dup := st.slots[e.ID]; dup {
			return nil, fmt.Errorf("index: duplicate id %d", e.ID)
		}
		st.slots[e.ID] = int32(i)
		st.ids[i] = e.ID
		st.alive[i] = true
		copy(st.xs[i*n:(i+1)*n], e.Series)
	}

	// Parallel feature extraction straight into the feature arena; the
	// tree items point into the arena, so queries touching a candidate's
	// feature vector and its neighbors stream one contiguous block.
	items := make([]rtree.Item, len(entries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers < 1 {
		workers = 1
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
				feat := st.fs[i*dim : (i+1)*dim : (i+1)*dim]
				copy(feat, t.Apply(entries[i].Series))
				if st.coarse != nil {
					copy(st.cfs[i*st.cdim:(i+1)*st.cdim], st.coarse.Apply(entries[i].Series))
				}
				items[i] = rtree.Item{ID: entries[i].ID, Slot: int32(i), Point: feat}
			}
		}(lo, hi)
	}
	wg.Wait()

	if cfg.Pager == nil {
		return &Index{
			st:   st,
			tree: rtree.BulkLoad(dim, cfg.Tree, items),
			cfg:  cfg,
		}, nil
	}

	// Out-of-core: the staged arenas stream into page-backed columns and
	// become garbage, the tree is STR-packed at the page-capacity node size
	// and serialized as the paged base, and the in-RAM delta starts empty.
	// (The staging arenas briefly hold the whole corpus; bulk loads happen
	// at recovery/rebuild time, before any query-serving working set
	// exists.)
	sp := cfg.Pager
	paged := &pagedCols{sp: sp}
	fail := func(err error) (*Index, error) {
		_ = paged.close()
		return nil, err
	}
	var err error
	if paged.xs, err = sp.NewColumn(n); err != nil {
		return fail(err)
	}
	if paged.fs, err = sp.NewColumn(dim); err != nil {
		return fail(err)
	}
	if st.cdim > 0 {
		if paged.cfs, err = sp.NewColumn(st.cdim); err != nil {
			return fail(err)
		}
	}
	for i := range entries {
		if err = paged.xs.Append(st.xs[i*n : (i+1)*n]); err != nil {
			return fail(err)
		}
		if err = paged.fs.Append(st.fs[i*dim : (i+1)*dim]); err != nil {
			return fail(err)
		}
		if st.cdim > 0 {
			if err = paged.cfs.Append(st.cfs[i*st.cdim : (i+1)*st.cdim]); err != nil {
				return fail(err)
			}
		}
	}
	// WritePaged copies point values into node pages, so the staging arenas
	// (which items still reference) can be dropped right after.
	ram := rtree.BulkLoad(dim, rtree.Config{MaxEntries: rtree.PageCapacity(dim, sp.PageSize())}, items)
	pt, err := rtree.WritePaged(ram, sp)
	if err != nil {
		return fail(err)
	}
	st.xs, st.fs, st.cfs = nil, nil, nil
	st.paged = paged
	return &Index{
		st:    st,
		tree:  rtree.New(dim, cfg.Tree),
		ptree: pt,
		cfg:   cfg,
	}, nil
}
