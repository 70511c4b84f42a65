package pager

import (
	"fmt"

	"warping/internal/store"
)

// Column is an append-only sequence of fixed-width float64 records stored
// in page-size segments: record slot s lives in segment s/perPage at
// record offset s%perPage. Records never span pages. Appends and reads go
// through the buffer pool, so only the touched segments are resident.
//
// Concurrency contract: appends are serialized by the caller (the index's
// write lock); any number of Cursors may read concurrently with each other
// (its read lock), never concurrently with an append to the same column.
type Column struct {
	f       *File
	pool    *Pool
	w       int      // floats per record
	perPage int      // records per page
	pids    []uint64 // page id of each segment
	count   int      // records appended
}

// NewColumn creates a column of w-float records backed by a fresh file.
func (s *Space) NewColumn(w int) (*Column, error) {
	if w <= 0 {
		return nil, fmt.Errorf("pager: column record width %d", w)
	}
	perPage := (s.pool.pageSize - store.PageHeaderSize) / (w * 8)
	if perPage < 1 {
		return nil, fmt.Errorf("pager: record of %d floats does not fit a %d-byte page", w, s.pool.pageSize)
	}
	f, err := s.NewFile(KindColumn)
	if err != nil {
		return nil, err
	}
	return &Column{f: f, pool: s.pool, w: w, perPage: perPage}, nil
}

// Width returns floats per record.
func (c *Column) Width() int { return c.w }

// Len returns the number of records appended.
func (c *Column) Len() int { return c.count }

// Append writes vals (exactly Width floats) as the next record.
func (c *Column) Append(vals []float64) error {
	if len(vals) != c.w {
		return fmt.Errorf("pager: append %d floats to column of width %d", len(vals), c.w)
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
	off := (slot % c.perPage) * c.w
	copy(fr.Floats()[off:off+c.w], vals)
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
// returned by At aliases pool memory and is valid only until the next At
// on the same Cursor or its Release.
type Cursor struct {
	col *Column
	seg int
	fr  *Frame
	fl  []float64
	// Misses counts pool misses this cursor caused — the real page
	// accesses attributed to the query driving it.
	Misses int
}

// Reader returns a cursor positioned nowhere.
func (c *Column) Reader() Cursor { return Cursor{col: c, seg: -1} }

// At returns record slot. The result aliases the pinned page.
func (cur *Cursor) At(slot int) ([]float64, error) {
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
		cur.fl = fr.Floats()
		cur.seg = seg
	}
	off := (slot % c.perPage) * c.w
	return cur.fl[off : off+c.w : off+c.w], nil
}

// Release unpins the cursor's page. The cursor stays usable; the next At
// re-pins.
func (cur *Cursor) Release() {
	if cur.fr != nil {
		cur.col.pool.Unpin(cur.fr)
		cur.fr = nil
		cur.seg = -1
	}
}
