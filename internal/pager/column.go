package pager

import (
	"fmt"
	"unsafe"

	"warping/internal/store"
)

// Column is an append-only sequence of fixed-size records stored in
// page-size segments: record slot s lives in segment s/perPage at record
// offset s%perPage. Records never span pages. Appends and reads go through
// the buffer pool, so only the touched segments are resident. A column made
// by NewColumn holds float64 records (Append, Cursor.At); one made by
// NewByteColumn holds raw bytes (AppendBytes, Cursor.BytesAt).
//
// Concurrency contract: appends are serialized by the caller (the index's
// write lock); any number of Cursors may read concurrently with each other
// (its read lock), never concurrently with an append to the same column.
type Column struct {
	f       *File
	pool    *Pool
	size    int      // bytes per record
	perPage int      // records per page
	pids    []uint64 // page id of each segment
	count   int      // records appended
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
	return &Column{f: f, pool: s.pool, size: size, perPage: perPage}, nil
}

// Len returns the number of records appended.
func (c *Column) Len() int { return c.count }

// Append writes vals (exactly one record's worth of floats) as the next
// record.
func (c *Column) Append(vals []float64) error {
	if len(vals)*8 != c.size {
		return fmt.Errorf("pager: append %d floats to a column of %d-byte records", len(vals), c.size)
	}
	return c.AppendBytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), c.size))
}

// AppendBytes writes rec (exactly one record's size) as the next record.
func (c *Column) AppendBytes(rec []byte) error {
	if len(rec) != c.size {
		return fmt.Errorf("pager: append %d bytes to a column of %d-byte records", len(rec), c.size)
	}
	slot := c.count
	seg := slot / c.perPage
	var fr *Frame
	var err error
	if seg == len(c.pids) {
		pid := c.f.Allocate()
		fr, err = c.pool.PinNew(c.f, pid)
		if err != nil {
			return err
		}
		c.pids = append(c.pids, pid)
	} else {
		fr, _, err = c.pool.Pin(c.f, c.pids[seg])
		if err != nil {
			return err
		}
	}
	off := store.PageHeaderSize + (slot%c.perPage)*c.size
	copy(fr.Bytes()[off:off+c.size], rec)
	c.pool.MarkDirty(fr)
	c.pool.Unpin(fr)
	c.count++
	return nil
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
		fr, miss, err := c.pool.Pin(c.f, c.pids[seg])
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
