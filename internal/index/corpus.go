// The corpus: the columnar series storage every structure in this package
// keeps — the R-tree Index that serves queries, and the linear-scan
// baseline the experiments compare it against — read through a
// corpusReader by the refinement cascade (verify.go).
package index

import (
	"fmt"
	"math"

	"warping/internal/dtw"
	"warping/internal/pager"
	"warping/internal/ts"
)

// corpus is the structure-independent state of an Index or a baseline: the
// retained series, one column of them. Feature vectors are not kept here:
// the tree and delta that filter on them are their only owner (the Index
// computes one at Add time and appends it to the delta, and repacks read
// them back out of the tree and the delta). The spatial structure (tree or
// none) lives in the owner; corpus keeps the storage and validation uniform.
//
// Storage is a columnar slot arena, not a map of per-entry slices: in RAM
// every retained series lives in one contiguous []float64 block (slot s at
// xs[s*n : (s+1)*n]), with a small id→slot map on the side. LB_Keogh and the
// rest of the verification cascade therefore stream sequential memory
// instead of chasing one heap pointer per candidate. Remove tombstones its
// slot; when tombstones outnumber live slots the Index repacks corpus and
// tree together (Index.repack; the scan baseline never removes) into a
// fresh corpus — never in place, so outstanding views keep reading the old,
// still-correct generation.
//
// Slots are handed out in append order by add, and by an Index in the order
// its bulk-built tree's leaves hold the items (slot = rank in leaf order),
// so the candidates of one leaf are neighbours in the column.
//
// Out of core (only an Index is ever paged) the slots an Index's repack
// writes, 0 to base-1, live in page-backed columns instead: record slot s is
// page s/perPage of the column's spill file, resident only while the buffer
// pool holds it. Beside it a second column holds each series' shadow
// (dtw.Quantise: a (base, step) pair and one byte per point, 144 B at
// n = 128, so 56 to an 8 KiB page against the series' 7) in the same slot,
// and the cascade reads a candidate's shadow before its series, and its
// series only if the shadow did not prune it (verifier.cascade). Both
// columns are written once, by repack (spill, then seal), and read-only
// after. The slots added since — the delta's — stay in the RAM
// arena's tail, xs holding slot base+i at i*n, until the next repack writes
// them out: they have no shadow, because a resident series costs no page
// read, and the shadow's gain is the page reads it saves. In RAM base is 0
// and the arena holds every slot. The id->slot map, ids and alive stay in
// RAM in both modes (a few bytes per series — the pageable bulk is the
// column data). Slot reads go through a corpusReader, so a query is charged
// the real pool misses of the shadow and series pages its cascade reads.
type corpus struct {
	n int // series length

	slots map[int64]int32 // id -> live slot
	ids   []int64         // slot -> id (meaningful only while live)
	alive []bool          // slot liveness; false = tombstone
	base  int             // slots in the columns (out of core); 0 in RAM
	xs    []float64       // series arena of slots base..len(ids)-1
	col   *pager.Column   // series column of slots 0..base-1; nil in RAM
	sh    *pager.Column   // shadow column beside it; nil in RAM
	shbuf []byte          // spill's quantiser scratch
	dead  int             // tombstone count
}

// openColumns gives an empty corpus its out-of-core columns: the series
// column, then the shadow column, each a fresh page file of sp. Both or
// neither.
func (st *corpus) openColumns(sp *pager.Space) error {
	var err error
	if st.col, err = sp.NewColumn(st.n); err != nil {
		return err
	}
	if st.sh, err = sp.NewByteColumn(dtw.ShadowSize(st.n)); err != nil {
		_ = st.close()
		return err
	}
	return nil
}

// close releases the corpus's spill files (no-op in RAM mode).
func (st *corpus) close() error {
	var first error
	for _, c := range []*pager.Column{st.col, st.sh} {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.col, st.sh = nil, nil
	return first
}

// corpusReader is the lazy per-slot accessor of one query or worker. Arena
// views alias the arena and stay valid indefinitely; out of core each column
// has a cursor that pins a page on first use, so clustered slot accesses hit
// without re-pinning, and every real pool miss is attributed to this reader
// — there a view is valid only until the next read of its column or
// release. Readers must not be shared across goroutines; release when done.
type corpusReader struct {
	st  *corpus
	cur pager.Cursor // series
	shc pager.Cursor // shadows
}

// reader returns a fresh reader over the corpus.
func (st *corpus) reader() corpusReader {
	r := corpusReader{st: st}
	if st.col != nil {
		r.cur, r.shc = st.col.Reader(), st.sh.Reader()
	}
	return r
}

// series returns the retained series of a slot: a view of the arena, or of
// the page the reader's series cursor pins.
func (r *corpusReader) series(slot int) (ts.Series, error) {
	if i := slot - r.st.base; i >= 0 {
		n := r.st.n
		return r.st.xs[i*n : (i+1)*n : (i+1)*n], nil
	}
	return r.cur.At(slot)
}

// shadow returns the shadow of a slot, a view of the page the reader's
// shadow cursor pins. ok is false for a slot in the arena, which keeps no
// shadows.
func (r *corpusReader) shadow(slot int) (sh []byte, ok bool, err error) {
	if slot >= r.st.base {
		return nil, false, nil
	}
	sh, err = r.shc.BytesAt(slot)
	return sh, true, err
}

// misses returns the real pool misses this reader has caused so far, in
// both columns.
func (r *corpusReader) misses() int { return r.cur.Misses + r.shc.Misses }

// release unpins the reader's cursors. The reader stays usable: the next
// read re-pins.
func (r *corpusReader) release() {
	r.cur.Release()
	r.shc.Release()
}

func newCorpus(n int) corpus {
	return corpus{n: n, slots: make(map[int64]int32)}
}

// checkSeries validates a series for storage: the corpus's length, and
// finite values whose range is a finite float64 — the bounds are undefined
// on anything else, and a paged corpus could not quantise its shadow.
func (st *corpus) checkSeries(x ts.Series) error {
	if len(x) != st.n {
		return fmt.Errorf("series length %d, want %d", len(x), st.n)
	}
	if len(x) == 0 {
		return nil
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		lo, hi = min(lo, v), max(hi, v) // NaN-propagating
	}
	if !(hi-lo <= math.MaxFloat64) {
		return fmt.Errorf("series values in [%v, %v] are not finite", lo, hi)
	}
	return nil
}

// add validates and stores one series in the next arena slot, returning the
// slot (for the owner to tag its spatial item with).
func (st *corpus) add(id int64, x ts.Series) (int32, error) {
	if err := st.checkSeries(x); err != nil {
		return 0, fmt.Errorf("index: %w", err)
	}
	if _, dup := st.slots[id]; dup {
		return 0, fmt.Errorf("index: duplicate id %d", id)
	}
	return st.put(id, x), nil
}

// put stores one validated series in the next slot, at the arena's tail,
// and returns the slot. The values are copied.
func (st *corpus) put(id int64, x ts.Series) int32 {
	st.xs = append(st.xs, x...)
	return st.register(id)
}

// spill writes one validated series and its quantised shadow as the next
// record of the corpus's open columns and returns the slot. Only repack
// calls it, on a fresh corpus, before any put and before seal. A failed
// write leaves a column torn: the caller closes the corpus.
func (st *corpus) spill(id int64, x ts.Series) (int32, error) {
	if st.shbuf == nil {
		st.shbuf = make([]byte, dtw.ShadowSize(st.n))
	}
	if err := dtw.Quantise(st.shbuf, x); err != nil {
		return 0, err
	}
	if err := st.col.Append(x); err != nil {
		return 0, err
	}
	if err := st.sh.AppendBytes(st.shbuf); err != nil {
		return 0, err
	}
	st.base++
	return st.register(id), nil
}

// seal ends the columns' build: their last pages are written, and the
// spilled slots can be read.
func (st *corpus) seal() error {
	err := st.col.Seal()
	if serr := st.sh.Seal(); err == nil {
		err = serr
	}
	return err
}

// register gives id the next slot, live.
func (st *corpus) register(id int64) int32 {
	slot := int32(len(st.ids))
	st.ids = append(st.ids, id)
	st.alive = append(st.alive, true)
	st.slots[id] = slot
	return slot
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

// retainable makes a reader view of slot safe to keep: arena views stay
// value-correct indefinitely (the arena is appended to, never written in
// place) and are returned as they are; a column view aliases a pool page and
// is copied out.
func (st *corpus) retainable(slot int, v []float64) []float64 {
	if slot >= st.base {
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
	return st.retainable(int(slot), x), true
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
		fn(id, st.retainable(slot, x))
	}
}

// checkQuery validates a query series length.
func (st *corpus) checkQuery(q ts.Series) error {
	if len(q) != st.n {
		return fmt.Errorf("index: %w: got %d, want %d", ErrQueryLength, len(q), st.n)
	}
	return nil
}
