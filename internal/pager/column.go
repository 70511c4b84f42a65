package pager

import (
	"fmt"
	"unsafe"

	"warping/internal/store"
)

// Column is a write-once sequence of fixed-size records stored in page-size
// segments: record slot s lives in page s/perPage at record offset
// s%perPage. Records never span pages. Its builder appends every record,
// which fills a page buffer outside the pool and writes each page as it
// fills (File.AppendPage), then seals it, which writes the last page; from
// then on the column is read-only and its readers pin pages through the
// buffer pool, so only the touched pages are resident. A record whose page
// is not yet written cannot be read. A column made by NewColumn holds
// float64 records (Append, Cursor.At); one made by NewByteColumn holds raw
// bytes (AppendBytes, Cursor.BytesAt).
//
// Concurrency contract: one goroutine builds a column; any number of Cursors
// may then read it concurrently.
type Column struct {
	f       *File
	pool    *Pool
	size    int    // bytes per record
	perPage int    // records per page
	count   int    // records appended
	page    *Frame // the page being filled; nil once sealed
}

// NewColumn creates a column of w-float records backed by a fresh file.
func (s *Space) NewColumn(w int) (*Column, error) {
	if w <= 0 {
		return nil, fmt.Errorf("pager: column record width %d", w)
	}
	return s.NewByteColumn(w * 8)
}

// NewByteColumn creates a column of size-byte records backed by a fresh
// file. A record whose size is a multiple of 8 stays 8-byte aligned.
func (s *Space) NewByteColumn(size int) (*Column, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pager: column record size %d", size)
	}
	perPage := (s.pool.pageSize - store.PageHeaderSize) / size
	if perPage < 1 {
		return nil, fmt.Errorf("pager: record of %d bytes does not fit a %d-byte page", size, s.pool.pageSize)
	}
	f, err := s.NewFile(KindColumn)
	if err != nil {
		return nil, err
	}
	return &Column{f: f, pool: s.pool, size: size, perPage: perPage, page: s.NewPage()}, nil
}

// Append writes vals (exactly one record's worth of floats) as the next
// record.
func (c *Column) Append(vals []float64) error {
	if len(vals)*8 != c.size {
		return fmt.Errorf("pager: append %d floats to a column of %d-byte records", len(vals), c.size)
	}
	return c.AppendBytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), c.size))
}

// AppendBytes writes rec (exactly one record's size) as the next record. A
// failed page write leaves the column torn: its builder must Close it.
func (c *Column) AppendBytes(rec []byte) error {
	if len(rec) != c.size {
		return fmt.Errorf("pager: append %d bytes to a column of %d-byte records", len(rec), c.size)
	}
	if c.page == nil {
		return fmt.Errorf("pager: append to a sealed column")
	}
	off := store.PageHeaderSize + (c.count%c.perPage)*c.size
	copy(c.page.Bytes()[off:off+c.size], rec)
	c.count++
	if c.count%c.perPage == 0 {
		return c.writePage()
	}
	return nil
}

// writePage writes the page being filled as the file's next page and clears
// the buffer for the one after.
func (c *Column) writePage() error {
	_, err := c.f.AppendPage(c.page)
	clear(c.page.words)
	return err
}

// Seal writes the last, partly filled page and ends the build: the column
// takes no more records, and every record can be read.
func (c *Column) Seal() error {
	var err error
	if c.page != nil && c.count%c.perPage != 0 {
		err = c.writePage()
	}
	c.page = nil
	return err
}

// Close drops the column's cached pages and deletes its file.
func (c *Column) Close() error { return c.f.sp.Remove(c.f) }

// Cursor reads one column, keeping the last-touched segment pinned so
// sequential and clustered reads hit without re-pinning. Each concurrent
// reader owns its own Cursor and must Release it when done. The slice
// returned by At or BytesAt aliases pool memory and is valid only until the
// next read on the same Cursor or its Release.
type Cursor struct {
	col  *Column
	seg  int
	fr   *Frame
	page []byte
	// Misses counts pool misses this cursor caused — the real page
	// accesses attributed to the query driving it.
	Misses int
}

// Reader returns a cursor positioned nowhere.
func (c *Column) Reader() Cursor { return Cursor{col: c, seg: -1} }

// At returns float record slot. The result aliases the pinned page.
func (cur *Cursor) At(slot int) ([]float64, error) {
	b, err := cur.BytesAt(slot)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), nil
}

// BytesAt returns record slot as bytes. The result aliases the pinned page.
func (cur *Cursor) BytesAt(slot int) ([]byte, error) {
	c := cur.col
	if slot < 0 || slot >= c.count {
		return nil, fmt.Errorf("pager: slot %d out of range (%d records)", slot, c.count)
	}
	seg := slot / c.perPage
	if seg != cur.seg || cur.fr == nil {
		if cur.fr != nil {
			c.pool.Unpin(cur.fr)
			cur.fr = nil
		}
		fr, miss, err := c.pool.Pin(c.f, uint64(seg))
		if err != nil {
			cur.seg = -1
			return nil, err
		}
		if miss {
			cur.Misses++
		}
		cur.fr = fr
		cur.page = fr.Bytes()
		cur.seg = seg
	}
	off := store.PageHeaderSize + (slot%c.perPage)*c.size
	return cur.page[off : off+c.size : off+c.size], nil
}

// Release unpins the cursor's page. The cursor stays usable; the next read
// re-pins.
func (cur *Cursor) Release() {
	if cur.fr != nil {
		cur.col.pool.Unpin(cur.fr)
		cur.fr = nil
		cur.seg = -1
	}
}
