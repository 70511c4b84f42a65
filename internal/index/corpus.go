// The corpus: the columnar storage every structure in this package keeps
// its series in — the R*-tree Index that serves queries, and the linear-scan
// baseline the experiments compare it against — read one column at a time
// through a corpusReader by the refinement cascade (verify.go).
package index

import (
	"fmt"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/ts"
)

// corpus is the structure-independent state of an Index or a baseline: the
// retained series and their feature vectors (cached at Add time, so
// queries and repacks never recompute transform.Apply), plus the
// transform itself. The spatial structure (tree or none) lives in the
// owner; corpus keeps the storage and validation uniform.
//
// Storage is a columnar slot arena, not a map of per-entry slices: every
// retained series lives in one contiguous []float64 block (slot s at
// xs[s*n : (s+1)*n]) and every cached feature vector in another, with a
// small id→slot map on the side. The box pre-check and LB_Keogh of the
// verification cascade therefore stream sequential memory instead of
// chasing one heap pointer per candidate. Remove tombstones its slot;
// when tombstones outnumber live slots the Index repacks corpus and trees
// together (Index.repack; the scan baseline never removes) into
// a fresh corpus — never in place, so outstanding views and tree point
// slices keep reading the old, still-correct generation.
//
// Slots are handed out in append order by add, and by an Index in the order
// its bulk-built tree's leaves hold the items (slot = rank in leaf order),
// so the candidates of one leaf are neighbours in every column.
//
// In out-of-core mode (paged != nil; only an Index is ever paged) the two
// arenas live in page-backed columns instead: record slot s is page
// s/perPage of the column's spill file, resident only while the buffer pool
// holds it. The id→slot map, ids and alive stay in RAM (a few bytes per
// series — the pageable bulk is the float data). In both modes slot reads
// go through a corpusReader, one column at a time, so a query pins (and is
// charged the real pool misses of) only the columns its cascade consumes.
type corpus struct {
	transform core.Transform // nil for the transform-less linear scan
	n         int            // series length
	dim       int            // feature dimensionality (0 without transform)

	slots map[int64]int32 // id -> live slot
	ids   []int64         // slot -> id (meaningful only while live)
	alive []bool          // slot liveness; false = tombstone
	xs    []float64       // series arena, len == len(ids)*n
	fs    []float64       // feature arena, len == len(ids)*dim
	dead  int             // tombstone count
	// paged, when non-nil, replaces the xs/fs arenas with page-backed
	// columns (out-of-core mode).
	paged *pagedCols
}

// pagedCols is the out-of-core form of the corpus arenas: one page-backed
// column per arena, all sharing the space's buffer pool. Appends are
// serialized by the owning Index's write lock; concurrent queries read
// through per-query corpusReaders.
type pagedCols struct {
	sp *pager.Space
	xs *pager.Column // series records, width n
	fs *pager.Column // feature records, width dim
}

func (p *pagedCols) close() error {
	var first error
	for _, c := range []*pager.Column{p.xs, p.fs} {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.xs, p.fs = nil, nil
	return first
}

// newPagedCols creates the empty page-backed columns of an Index corpus
// (which always has a transform, so always a feature column) in sp.
func (st *corpus) newPagedCols(sp *pager.Space) (*pagedCols, error) {
	p := &pagedCols{sp: sp}
	var err error
	if p.xs, err = sp.NewColumn(st.n); err == nil {
		p.fs, err = sp.NewColumn(st.dim)
	}
	if err != nil {
		_ = p.close()
		return nil, err
	}
	return p, nil
}

// close releases the corpus's spill files (no-op in RAM mode).
func (st *corpus) close() error {
	if st.paged == nil {
		return nil
	}
	err := st.paged.close()
	st.paged = nil
	return err
}

// corpusReader is the lazy per-slot accessor of one query or worker: each
// cascade stage pulls only the column it consumes (series, feat).
// In RAM mode the views alias the arenas and stay valid indefinitely; in
// paged mode each column has its own cursor, pinned on first use, so
// clustered slot accesses hit without re-pinning, a column nobody asks for
// is never pinned, and every real pool miss is attributed to this reader —
// there a view is valid only until the next read of the same column or
// release. Readers must not be shared across goroutines; release when done.
type corpusReader struct {
	st     *corpus
	cx, cf pager.Cursor
}

// reader returns a fresh reader over the corpus.
func (st *corpus) reader() corpusReader {
	r := corpusReader{st: st}
	if p := st.paged; p != nil {
		r.cx = p.xs.Reader()
		r.cf = p.fs.Reader()
	}
	return r
}

// series returns the retained series of a live slot.
func (r *corpusReader) series(slot int) (ts.Series, error) {
	return r.record(&r.cx, r.st.xs, r.st.n, slot)
}

// feat returns the cached feature vector of a live slot (dim > 0).
func (r *corpusReader) feat(slot int) ([]float64, error) {
	return r.record(&r.cf, r.st.fs, r.st.dim, slot)
}

// record reads one column's width-w record of slot: a view of the RAM
// arena, or of the page the column's cursor pins.
func (r *corpusReader) record(cur *pager.Cursor, arena []float64, w, slot int) ([]float64, error) {
	if r.st.paged == nil {
		return arena[slot*w : (slot+1)*w : (slot+1)*w], nil
	}
	return cur.At(slot)
}

// misses returns the real pool misses this reader has caused so far.
func (r *corpusReader) misses() int { return r.cx.Misses + r.cf.Misses }

// release unpins the reader's cursors. The reader stays usable: the next
// read re-pins.
func (r *corpusReader) release() {
	r.cx.Release()
	r.cf.Release()
}

func newCorpus(t core.Transform, n int) corpus {
	dim := 0
	if t != nil {
		n = t.InputLen()
		dim = t.OutputLen()
	}
	return corpus{transform: t, n: n, dim: dim, slots: make(map[int64]int32)}
}

// add validates and stores one series in the next arena slot, returning its
// feature vector and slot (for the owner to tag its spatial item with).
func (st *corpus) add(id int64, x ts.Series) ([]float64, int32, error) {
	if len(x) != st.n {
		return nil, 0, fmt.Errorf("index: series length %d, want %d", len(x), st.n)
	}
	if _, dup := st.slots[id]; dup {
		return nil, 0, fmt.Errorf("index: duplicate id %d", id)
	}
	var feat []float64
	if st.transform != nil {
		feat = st.transform.Apply(x)
	}
	return st.put(id, x, feat)
}

// put stores one validated record — series and feature vector — in the next
// slot and returns the feature vector and the slot. The values are copied.
// In RAM mode the returned vector is a view into the feature arena;
// out-of-core it is feat itself, owned by the caller (spatial structures may
// retain either). A failed paged append means the spill files are torn
// mid-slot — the caller must treat it as fatal for this corpus.
func (st *corpus) put(id int64, x ts.Series, feat []float64) ([]float64, int32, error) {
	slot := len(st.ids)
	if p := st.paged; p != nil {
		if err := p.xs.Append(x); err != nil {
			return nil, 0, err
		}
		if err := p.fs.Append(feat); err != nil {
			return nil, 0, err
		}
	} else {
		st.xs = append(st.xs, x...)
		st.fs = append(st.fs, feat...)
		feat = st.fs[slot*st.dim : (slot+1)*st.dim : (slot+1)*st.dim]
	}
	st.ids = append(st.ids, id)
	st.alive = append(st.alive, true)
	st.slots[id] = int32(slot)
	return feat, int32(slot), nil
}

// remove tombstones the slot for id; it reads no column. The trees keep the
// dead item and the queries drop it by alive[slot] until the owner compacts.
func (st *corpus) remove(id int64) bool {
	slot, ok := st.slots[id]
	if !ok {
		return false
	}
	delete(st.slots, id)
	st.alive[slot] = false
	st.dead++
	return true
}

// compactMinDead is the minimum tombstone count before compaction is
// considered: below it the dead space cannot be worth a rebuild.
const compactMinDead = 32

// shouldCompact reports whether tombstones dominate the arena. Checked
// after each Index.Remove; a true return is followed by a repack of the
// live records.
func (st *corpus) shouldCompact() bool {
	return st.dead >= compactMinDead && st.dead*2 > len(st.ids)
}

func (st *corpus) len() int { return len(st.slots) }

// retainable makes a reader view safe to keep: RAM arena views stay
// value-correct indefinitely and are returned as they are; a paged view
// aliases a pool page and is copied out.
func (st *corpus) retainable(v []float64) []float64 {
	if st.paged == nil {
		return v
	}
	return append([]float64(nil), v...)
}

func (st *corpus) get(id int64) (ts.Series, bool) {
	slot, ok := st.slots[id]
	if !ok {
		return nil, false
	}
	r := st.reader()
	defer r.release()
	x, err := r.series(int(slot))
	if err != nil {
		return nil, false
	}
	return st.retainable(x), true
}

// visit walks live slots in slot order — append order, or for an Index's
// bulk-built part its tree's leaf order; deterministic either way, unlike the
// map iteration it replaced. fn may retain the series; a spill read failure
// panics.
func (st *corpus) visit(fn func(id int64, x ts.Series)) {
	r := st.reader()
	defer r.release()
	for slot, id := range st.ids {
		if !st.alive[slot] {
			continue
		}
		x, err := r.series(slot)
		if err != nil {
			panic(fmt.Sprintf("index: visiting paged corpus: %v", err))
		}
		fn(id, st.retainable(x))
	}
}

// visitFeats walks live slots in slot order with each one's cached feature
// vector, which fn may retain: what the Index needs to repack its records,
// naming each by its current slot. Paged read failures are returned (always
// nil in RAM mode).
func (st *corpus) visitFeats(fn func(slot int32, id int64, feat []float64)) error {
	r := st.reader()
	defer r.release()
	for slot, id := range st.ids {
		if !st.alive[slot] {
			continue
		}
		f, err := r.feat(slot)
		if err != nil {
			return err
		}
		fn(int32(slot), id, st.retainable(f))
	}
	return nil
}

// checkQuery validates a query series length.
func (st *corpus) checkQuery(q ts.Series) error {
	if len(q) != st.n {
		return fmt.Errorf("index: %w: got %d, want %d", ErrQueryLength, len(q), st.n)
	}
	return nil
}
