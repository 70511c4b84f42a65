// The corpus: the columnar series storage every structure in this package
// keeps — the R-tree Index that serves queries, and the linear-scan
// baseline the experiments compare it against — read through a
// corpusReader by the refinement cascade (verify.go).
package index

import (
	"encoding/binary"
	"fmt"
	"math"

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
// Storage is columnar slot arenas, not a map of per-entry slices: the slots
// live in contiguous blocks with a small id→slot map on the side, so the
// verification cascade streams sequential memory instead of chasing one
// heap pointer per candidate. Records are only ever added: a delta merge
// repacks corpus and tree together (Index.repack) into a fresh corpus —
// never in place, so outstanding views keep reading the old, still-correct
// generation.
//
// Slots are handed out in append order by add, and by an Index in the order
// its bulk-built tree's leaves hold the items (slot = rank in leaf order),
// so the candidates of one leaf are neighbours in the column. Either way a
// slot is the position of the record's tree or delta entry.
//
// The slots an Index's repack writes, 0 to base-1, are its packed base, and
// each is an exact record. If every series the corpus holds has a byte
// record (encode: an 8-byte base and one byte per point, 136 B at n = 128
// against a float64 series' 1 KiB) the base holds those; a pitch series'
// normal form has one. In RAM they sit in one []byte arena, recs, slot s at
// s·(8+n); out of core in one page-backed column, 60 to an 8 KiB page,
// record slot s on page s/perPage of the column's spill file and resident
// only while the buffer pool holds it. LB_Keogh reads a byte record as it
// is (dtw.SquaredBytesToEnvelopeWithin), and a reader decodes only the
// survivors into its own buffer. Otherwise (random walks, say) the base is
// float64 series: out of core a column of them, read in place; in RAM the
// arena xs, with base 0. The choice is made per repack, from the data:
// uncodable records whether some series added so far has no byte record
// (add sets it, and a bulk load checks its entries). The base is written
// once, by repack (pack, then seal), and read-only after. The slots added
// since — the delta's — stay float64 series in the RAM arena's tail, xs
// holding slot base+i at i*n, until the next repack packs them. The id->slot
// map and ids stay in RAM in both modes (a few bytes per series). Slot reads
// go through a corpusReader, so a query is charged the real pool misses of
// the pages its cascade reads.
type corpus struct {
	n int // series length

	slots map[int64]int32 // id -> slot
	ids   []int64         // slot -> id
	base  int             // slots in the packed base's records (recs or col)
	xs    []float64       // float64 series arena of slots base..len(ids)-1
	recs  []byte          // byte records of slots 0..base-1 in RAM; nil out of core
	col   *pager.Column   // column of slots 0..base-1 out of core; nil in RAM
	coded bool            // the base holds byte records, not float64 series
	// uncodable is set once a series with no byte record is added, or
	// packed: the next repack keeps float64 series.
	uncodable bool
	rec       []byte // pack's encoding scratch
}

// recordHeader is the size of a byte record's base, the little-endian
// float64 before its one byte per point.
const recordHeader = 8

// encode writes the byte record of x into rec, if x has one, and reports
// whether it does; a nil rec only checks. The record is base = min(x) and
// b_i = x_i − base truncated to a byte, and x has one only if every
// x_i − base lies in [0, 255] and float64(b_i) + base is Float64bits-equal
// to x_i: decode gives back x bit for bit. x must be finite.
func encode(rec []byte, x ts.Series) bool {
	if len(x) == 0 {
		return true
	}
	base := x[0]
	for _, v := range x {
		if v < base {
			base = v
		}
	}
	var codes []byte
	if rec != nil {
		codes = rec[recordHeader : recordHeader+len(x)]
	}
	for i, v := range x {
		b := v - base // ≥ 0: rounding is monotone
		if !(b <= 255) || math.Float64bits(float64(byte(b))+base) != math.Float64bits(v) {
			return false
		}
		if codes != nil {
			codes[i] = byte(b)
		}
	}
	if rec != nil {
		binary.LittleEndian.PutUint64(rec, math.Float64bits(base))
	}
	return true
}

// recordBase returns the base of byte record rec.
func recordBase(rec []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec))
}

// decode writes the series of byte record rec into x: float64(b_i) + base,
// the values dtw.SquaredBytesToEnvelopeWithin widens the bytes to.
func decode(x []float64, rec []byte) {
	base := recordBase(rec)
	rec = rec[recordHeader:]
	x = x[:len(rec)] // bounds-check elimination
	for i, b := range rec {
		x[i] = float64(b) + base
	}
}

// openBase readies an empty corpus to pack m series: byte records unless
// some series it will hold has none, in a RAM arena or, with sp, in a fresh
// page file of sp.
func (st *corpus) openBase(sp *pager.Space, m int) error {
	st.coded = !st.uncodable
	if st.coded {
		st.rec = make([]byte, recordHeader+st.n)
	}
	var err error
	switch {
	case sp == nil && st.coded:
		st.recs = make([]byte, 0, m*len(st.rec))
	case sp == nil:
		st.xs = make([]float64, 0, m*st.n)
	case st.coded:
		st.col, err = sp.NewByteColumn(len(st.rec))
	default:
		st.col, err = sp.NewColumn(st.n)
	}
	return err
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

// corpusReader is the lazy per-slot accessor of one query or worker. Arena
// views alias the arena and stay valid indefinitely; out of core the
// column has a cursor that pins a page on first use, so clustered slot
// accesses hit without re-pinning, and every real pool miss is attributed to
// this reader — there a view of the pinned page is valid only until the next
// column read or release. A series decoded from a byte record is a view of
// buf, valid until the next decode. Readers must not be shared across
// goroutines; release when done.
type corpusReader struct {
	st  *corpus
	cur pager.Cursor
	buf []float64 // a decoded byte record; allocated on first use if nil
}

// reader returns a fresh reader over the corpus.
func (st *corpus) reader() corpusReader {
	r := corpusReader{st: st}
	if st.col != nil {
		r.cur = st.col.Reader()
	}
	return r
}

// record returns what a slot holds: its byte record rec — a view of the RAM
// arena or of the page the reader's cursor pins — if it has one, and its
// float64 series x otherwise — a view of the arena or of the pinned page.
func (r *corpusReader) record(slot int) (rec []byte, x ts.Series, err error) {
	n := r.st.n
	if i := slot - r.st.base; i >= 0 {
		return nil, r.st.xs[i*n : (i+1)*n : (i+1)*n], nil
	}
	switch {
	case !r.st.coded:
		x, err = r.cur.At(slot)
	case r.st.col == nil:
		w := recordHeader + n
		rec = r.st.recs[slot*w : (slot+1)*w : (slot+1)*w]
	default:
		rec, err = r.cur.BytesAt(slot)
	}
	return rec, x, err
}

// series returns the retained series of a slot: a view of the arena, of
// the page the reader's cursor pins, or of the reader's buffer.
func (r *corpusReader) series(slot int) (ts.Series, error) {
	rec, x, err := r.record(slot)
	if rec == nil || err != nil {
		return x, err
	}
	return r.decode(rec), nil
}

// decode decodes byte record rec into the reader's buffer and returns it.
func (r *corpusReader) decode(rec []byte) ts.Series {
	if r.buf == nil {
		r.buf = make([]float64, r.st.n)
	}
	decode(r.buf, rec)
	return r.buf
}

// misses returns the real pool misses this reader has caused so far.
func (r *corpusReader) misses() int { return r.cur.Misses }

// release unpins the reader's cursor. The reader stays usable: the next
// read re-pins.
func (r *corpusReader) release() { r.cur.Release() }

func newCorpus(n int) corpus {
	return corpus{n: n, slots: make(map[int64]int32)}
}

// checkSeries validates a series for storage: length n, and finite values
// whose range is a finite float64 — the bounds are undefined on anything
// else.
func checkSeries(n int, x ts.Series) error {
	if len(x) != n {
		return fmt.Errorf("series length %d, want %d", len(x), n)
	}
	return checkFinite("series", x)
}

// checkFinite reports an error unless x's values span a finite float64
// range, which also rules out every NaN and infinity. The scan is plain
// compares, which predict well, and a NaN ends it as the range's upper
// end; only a series that fails is scanned again with the NaN-propagating
// builtin min and max, for the range its error names.
func checkFinite(what string, x ts.Series) error {
	if len(x) == 0 {
		return nil
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		} else if v != v {
			hi = v
			break
		}
	}
	if hi-lo <= math.MaxFloat64 {
		return nil
	}
	lo, hi = x[0], x[0]
	for _, v := range x {
		lo, hi = min(lo, v), max(hi, v)
	}
	return fmt.Errorf("%s values in [%v, %v] are not finite", what, lo, hi)
}

// add validates and stores one series in the next arena slot.
func (st *corpus) add(id int64, x ts.Series) error {
	if err := checkSeries(st.n, x); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if _, dup := st.slots[id]; dup {
		return fmt.Errorf("index: duplicate id %d", id)
	}
	st.uncodable = st.uncodable || !encode(nil, x)
	st.put(id, x)
	return nil
}

// put stores one validated series in the next slot, at the arena's tail.
// The values are copied.
func (st *corpus) put(id int64, x ts.Series) {
	st.xs = append(st.xs, x...)
	st.register(id)
}

// pack writes one validated record as the next slot of the corpus's packed
// base (openBase): a byte record rec is copied as it is, and a float64
// series x is encoded first if the base holds byte records (a float64 base
// takes only x). Only repack calls it, on a fresh corpus, before any put and
// before seal. A failed write leaves the column torn: the caller closes the
// corpus.
func (st *corpus) pack(id int64, rec []byte, x ts.Series) error {
	if st.coded && rec == nil {
		if !encode(st.rec, x) {
			return fmt.Errorf("index: series %d has no byte record", id)
		}
		rec = st.rec
	}
	switch {
	case st.coded && st.col == nil:
		st.recs = append(st.recs, rec...)
	case st.coded:
		if err := st.col.AppendBytes(rec); err != nil {
			return err
		}
	case st.col == nil:
		st.put(id, x) // a float64 base in RAM is the arena's head
		return nil
	default:
		if err := st.col.Append(x); err != nil {
			return err
		}
	}
	st.base++
	st.register(id)
	return nil
}

// seal ends the base's build: out of core the column's last page is
// written, and the packed slots can be read.
func (st *corpus) seal() error {
	if st.col == nil {
		return nil
	}
	return st.col.Seal()
}

// register gives id the next slot.
func (st *corpus) register(id int64) {
	st.slots[id] = int32(len(st.ids))
	st.ids = append(st.ids, id)
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

// visit walks the slots in slot order — append order, or for an Index's
// bulk-built part its tree's leaf order; deterministic either way, unlike the
// map iteration it replaced. fn may retain the series; a spill read failure
// panics.
func (st *corpus) visit(fn func(id int64, x ts.Series)) {
	r := st.reader()
	defer r.release()
	for slot, id := range st.ids {
		x, err := r.series(slot)
		if err != nil {
			panic(fmt.Sprintf("index: visiting paged corpus: %v", err))
		}
		fn(id, st.retainable(slot, x))
	}
}

// checkQuery validates a query series as checkSeries does a stored one: a
// wrong length is ErrQueryLength, and a NaN or infinite value is refused
// too — it would refine every candidate and match none, or rank arbitrary
// ids at +Inf.
func (st *corpus) checkQuery(q ts.Series) error {
	if len(q) != st.n {
		return fmt.Errorf("index: %w: got %d, want %d", ErrQueryLength, len(q), st.n)
	}
	if err := checkFinite("query", q); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}
