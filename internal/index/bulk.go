package index

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

	// Parallel validation and feature extraction, once per entry: the tree
	// pack copies the vectors into its point block, their only copy from
	// then on. The same pass learns whether every series has a byte record.
	// In RAM it keeps them, in entry order, for the pack to copy; out of
	// core the pack streams records to a page file, and a transient copy of
	// the corpus here would cost the memory that mode bounds. A worker stops
	// at the first invalid series of its chunk, so the first chunk with one
	// holds the first of all.
	type badEntry struct {
		i   int
		err error
	}
	items := make([]rtree.Item, len(entries))
	w := recordHeader + ix.st.n
	var recs []byte
	if ix.sp == nil {
		recs = make([]byte, len(entries)*w)
	}
	var uncodable atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(entries) + workers - 1) / workers
	bad := make([]badEntry, workers)
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
				if err := checkSeries(ix.st.n, entries[i].Series); err != nil {
					bad[lo/chunk] = badEntry{i, err}
					return
				}
				items[i] = rtree.Item{ID: entries[i].ID, Point: t.Apply(entries[i].Series)}
				var rec []byte
				if recs != nil {
					rec = recs[i*w : (i+1)*w]
				}
				if !encode(rec, entries[i].Series) {
					uncodable.Store(true)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	// The error is the first bad entry's, in entry order: an invalid series,
	// or an id an earlier entry holds.
	first := badEntry{i: len(entries)}
	for _, b := range bad {
		if b.err != nil {
			first = b
			break
		}
	}
	at := make(map[int64]int, len(entries)) // id -> entry index
	for i, e := range entries[:first.i] {
		if _, dup := at[e.ID]; dup {
			return fmt.Errorf("index: duplicate id %d", e.ID)
		}
		at[e.ID] = i
	}
	if first.err != nil {
		return fmt.Errorf("index: entry %d: %w", first.i, first.err)
	}
	if uncodable.Load() {
		recs = nil
	}
	es := rtree.NewEntries(t.OutputLen())
	for _, it := range items {
		es.Append(it.ID, it.Point)
	}
	return ix.repack(es, uncodable.Load(), func(_ *corpusReader, id int64) ([]byte, ts.Series, error) {
		i := at[id]
		if recs == nil {
			return nil, entries[i].Series, nil
		}
		return recs[i*w : (i+1)*w], nil, nil
	})
}

// repack rebuilds corpus and base together, in the tree's leaf order. es
// holds the records to keep, in any order: ID and feature vector, as the
// tree stores it (rtree.Entries). record
// finds a record's byte record or, if it has none at hand, its float64
// series by id (through a reader over the corpus being replaced, which
// repack holds for the length of the rewrite); no feature vector is
// computed here. uncodable reports whether some record's series has no byte
// record (corpus.encode), which makes the fresh base one of float64 series
// rather than byte records, in either mode. The STR pack that builds the
// tree also decides where the records go: the record whose entry is at
// position r in leaf order is written to slot r of a fresh base (RAM arena
// and page file alike). So one leaf's M entries occupy ⌈M / perPage⌉
// neighbouring pages of the column, and a query's candidates — which come
// leaf by leaf — are verified from records next to each other, as the pack
// put a leaf's entries in one run of the tree's own block. It is the one
// routine behind every packed base: first build (bulkLoad) and, through
// repackLive, delta merge, in both modes. The tree is packed at one page's
// node capacity — the pager's page out of core, the default page in RAM —
// so a corpus has the same shape in both modes, and the delta starts empty.
//
// In paged mode it is also the only writer of page files: the column and
// the tree's leaves are written once, front to back, outside the buffer
// pool. All-or-nothing: the old corpus, base and delta stand until every
// write has succeeded, and are released only then.
func (ix *Index) repack(es rtree.Entries, uncodable bool, record func(r *corpusReader, id int64) ([]byte, ts.Series, error)) error {
	st := &ix.st
	m, dim := es.Len(), ix.transform.OutputLen()
	pageSize := pager.DefaultPageSize
	if ix.sp != nil {
		pageSize = ix.sp.PageSize()
	}
	tree := rtree.Pack(rtree.Config{MaxEntries: rtree.PageCapacity(dim, pageSize)}, es)

	fresh := newCorpus(st.n)
	fresh.uncodable = uncodable
	fresh.slots = make(map[int64]int32, m)
	fresh.ids = make([]int64, 0, m)
	if err := fresh.openBase(ix.sp, m); err != nil {
		return err
	}
	var err error
	r := st.reader()
	_ = tree.VisitLeaves(func(it rtree.Item) { // an in-RAM tree's walk reads no page
		if err != nil {
			return
		}
		// pack copies into the target base while the source view (of a
		// pinned page, or of the reader's decoded record) stays valid.
		rec, x, e := record(&r, it.ID)
		if err = e; err != nil {
			return
		}
		if rec != nil && !fresh.coded {
			rec, x = nil, r.decode(rec)
		}
		err = fresh.pack(it.ID, rec, x)
	})
	r.release()
	base := tree
	if err == nil {
		err = fresh.seal()
	}
	if err == nil && ix.sp != nil {
		// WritePaged copies the leaves' entries into leaf pages, so the
		// packed RAM tree and its block are garbage after.
		base, err = rtree.WritePaged(tree, ix.sp)
	}
	if err != nil {
		_ = fresh.close()
		return err
	}
	_ = st.close()
	_ = ix.base.Close(ix.sp)
	ix.st, ix.base, ix.delta = fresh, base, rtree.NewEntries(dim)
	return nil
}

// repackLive repacks the index's own records — base and delta alike — into
// a fresh base: the delta merge. Each record's feature vector is read back
// from the base or the delta that holds it, as stored, never recomputed or
// rounded again — with the slack of both — and the records are handed over
// in slot order: the base's leaf order, then the delta's.
func (ix *Index) repackLive() error {
	es, err := ix.base.Entries()
	if err != nil {
		return err
	}
	es.Extend(ix.delta)
	return ix.repack(es, ix.st.uncodable, func(r *corpusReader, id int64) ([]byte, ts.Series, error) {
		return r.record(int(ix.st.slots[id]))
	})
}
