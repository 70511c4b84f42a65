// The corpus: the columnar series storage every structure in this package
// keeps — the R*-tree Index that serves queries, and the linear-scan
// baseline the experiments compare it against — read through a
// corpusReader by the refinement cascade (verify.go).
package index

import (
	"fmt"

	"warping/internal/pager"
	"warping/internal/ts"
)

// corpus is the structure-independent state of an Index or a baseline: the
// retained series, one column of them. Feature vectors are not kept here:
// the tree that filters on them is their only owner (the Index computes one
// at Add time and hands it to the tree, and repacks read them back out of
// the trees). The spatial structure (tree or none) lives in the owner;
// corpus keeps the storage and validation uniform.
//
// Storage is a columnar slot arena, not a map of per-entry slices: every
// retained series lives in one contiguous []float64 block (slot s at
// xs[s*n : (s+1)*n]), with a small id→slot map on the side. LB_Keogh and the
// rest of the verification cascade therefore stream sequential memory
// instead of chasing one heap pointer per candidate. Remove tombstones its
// slot; when tombstones outnumber live slots the Index repacks corpus and
// trees together (Index.repack; the scan baseline never removes) into a
// fresh corpus — never in place, so outstanding views keep reading the old,
// still-correct generation.
//
// Slots are handed out in append order by add, and by an Index in the order
// its bulk-built tree's leaves hold the items (slot = rank in leaf order),
// so the candidates of one leaf are neighbours in the column.
//
// In out-of-core mode (col != nil; only an Index is ever paged) the arena
// lives in a page-backed column instead: record slot s is page s/perPage of
// the column's spill file, resident only while the buffer pool holds it.
// The id→slot map, ids and alive stay in RAM (a few bytes per series — the
// pageable bulk is the float data). In both modes slot reads go through a
// corpusReader, so a query is charged the real pool misses of the series
// pages its cascade reads.
type corpus struct {
	n int // series length

	slots map[int64]int32 // id -> live slot
	ids   []int64         // slot -> id (meaningful only while live)
	alive []bool          // slot liveness; false = tombstone
	xs    []float64       // series arena, len == len(ids)*n (RAM mode)
	col   *pager.Column   // series column (out-of-core mode); nil in RAM
	dead  int             // tombstone count
}

// close releases the corpus's spill file (no-op in RAM mode).
func (st *corpus) close() error {
	if st.col == nil {
		return nil
	}
	err := st.col.Close()
	st.col = nil
	return err
}

// corpusReader is the lazy per-slot accessor of one query or worker. In RAM
// mode its views alias the arena and stay valid indefinitely; in paged mode
// its cursor pins a page on first use, so clustered slot accesses hit
// without re-pinning, and every real pool miss is attributed to this reader
// — there a view is valid only until the next read or release. Readers must
// not be shared across goroutines; release when done.
type corpusReader struct {
	st  *corpus
	cur pager.Cursor
}

// reader returns a fresh reader over the corpus.
func (st *corpus) reader() corpusReader {
	r := corpusReader{st: st}
	if st.col != nil {
		r.cur = st.col.Reader()
	}
	return r
}

// series returns the retained series of a slot: a view of the RAM arena, or
// of the page the reader's cursor pins.
func (r *corpusReader) series(slot int) (ts.Series, error) {
	if r.st.col == nil {
		n := r.st.n
		return r.st.xs[slot*n : (slot+1)*n : (slot+1)*n], nil
	}
	return r.cur.At(slot)
}

// misses returns the real pool misses this reader has caused so far.
func (r *corpusReader) misses() int { return r.cur.Misses }

// release unpins the reader's cursor. The reader stays usable: the next
// read re-pins.
func (r *corpusReader) release() { r.cur.Release() }

func newCorpus(n int) corpus {
	return corpus{n: n, slots: make(map[int64]int32)}
}

// add validates and stores one series in the next arena slot, returning the
// slot (for the owner to tag its spatial item with).
func (st *corpus) add(id int64, x ts.Series) (int32, error) {
	if len(x) != st.n {
		return 0, fmt.Errorf("index: series length %d, want %d", len(x), st.n)
	}
	if _, dup := st.slots[id]; dup {
		return 0, fmt.Errorf("index: duplicate id %d", id)
	}
	return st.put(id, x)
}

// put stores one validated series in the next slot and returns the slot. The
// values are copied. A failed paged append means the spill file is torn
// mid-slot — the caller must treat it as fatal for this corpus.
func (st *corpus) put(id int64, x ts.Series) (int32, error) {
	slot := len(st.ids)
	if st.col != nil {
		if err := st.col.Append(x); err != nil {
			return 0, err
		}
	} else {
		st.xs = append(st.xs, x...)
	}
	st.ids = append(st.ids, id)
	st.alive = append(st.alive, true)
	st.slots[id] = int32(slot)
	return int32(slot), nil
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
	if st.col == nil {
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

// checkQuery validates a query series length.
func (st *corpus) checkQuery(q ts.Series) error {
	if len(q) != st.n {
		return fmt.Errorf("index: %w: got %d, want %d", ErrQueryLength, len(q), st.n)
	}
	return nil
}
