package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// Paged-file kind, version 1. A page file is the store's random-access
// sibling of the write-ahead log: fixed-size pages, each independently
// checksummed, reached by page id instead of sequential read. It backs the
// buffer pool in internal/pager. All integers are little-endian.
//
// File layout:
//
//	header     [64]byte at offset 0
//	  magic      [8]byte  "QBHPAGE\x00"
//	  version    uint32   currently 1
//	  pageSize   uint32   bytes per page, power of two
//	  kind       uint8    application page kind (see pager)
//	  pad        [43]byte zero
//	  headerCRC  uint32   CRC-32C of the first 60 bytes
//	page pid   at offset 64 + pid*pageSize, repeated:
//	  crc        uint32   CRC-32C of bytes 4..pageSize (kind, pid, payload)
//	  kind       uint8    must match the file kind
//	  pad        [3]byte  zero
//	  pid        uint64   page id, guards against misdirected reads
//	  payload    [pageSize-16]byte
//
// Torn or bit-flipped pages surface as ErrChecksum; a foreign file as
// ErrBadMagic; a future format as ErrVersion — the same typed errors the
// WAL uses — and a page of another kind as ErrKind.
//
// Unlike snapshots, page files are not written atomically: they are derived
// state (spill files), rebuilt from the snapshot+WAL on open. Their only
// durability job is to never return a page that differs from what was
// written — the checksums guarantee detection, the layers above guarantee
// recovery.

// ErrKind marks a page file, or a page, of another kind than the reader's.
var ErrKind = errors.New("store: wrong page kind")

var pageMagic = [8]byte{'Q', 'B', 'H', 'P', 'A', 'G', 'E', 0}

const (
	pageFileVersion = 1

	// PageHeaderSize is the per-page header; payload is PageSize minus this.
	PageHeaderSize = 16
	// pageFileHeaderSize is the file header before the first page.
	pageFileHeaderSize = 64

	// MinPageSize bounds the page size from below so a page always holds
	// its header plus a useful payload.
	MinPageSize = 256
)

// PageFile is a fixed-page-size random-access file of checksummed pages.
// A page is read with one positional ReadAt and written with one WriteAt
// on a store.FS File, so fault-injecting filesystems see every page write
// and can tear it. There is no file lock: positional I/O keeps no shared
// offset, and reads and writes of different pages may run concurrently.
// The caller must not read a page while it is being written; the pager
// writes each page once, before anything reads it.
type PageFile struct {
	f        File
	pageSize int
	kind     uint8
	npages   atomic.Uint64 // allocation high-water mark
}

// CreatePageFile creates (truncating) a page file with the given page size
// and kind, writing and syncing the file header.
func CreatePageFile(fsys FS, path string, pageSize int, kind uint8) (*PageFile, error) {
	if pageSize < MinPageSize || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("store: page size %d not a power of two >= %d", pageSize, MinPageSize)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, pageFileHeaderSize)
	copy(hdr, pageMagic[:])
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], pageFileVersion)
	le.PutUint32(hdr[12:], uint32(pageSize))
	hdr[16] = kind
	le.PutUint32(hdr[60:], crc32.Checksum(hdr[:60], castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return &PageFile{f: f, pageSize: pageSize, kind: kind}, nil
}

// OpenPageFile opens an existing page file, validating the header and the
// expected kind, and recovering the page count from the file length.
func OpenPageFile(fsys FS, path string, kind uint8) (*PageFile, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, pageFileHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: page file header", ErrTruncated)
		}
		return nil, err
	}
	le := binary.LittleEndian
	if [8]byte(hdr[:8]) != pageMagic {
		f.Close()
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, hdr[:8])
	}
	if le.Uint32(hdr[60:]) != crc32.Checksum(hdr[:60], castagnoli) {
		f.Close()
		return nil, fmt.Errorf("%w: page file header", ErrChecksum)
	}
	if v := le.Uint32(hdr[8:]); v != pageFileVersion {
		f.Close()
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrVersion, v, pageFileVersion)
	}
	pageSize := int(le.Uint32(hdr[12:]))
	if pageSize < MinPageSize || pageSize&(pageSize-1) != 0 {
		f.Close()
		return nil, fmt.Errorf("%w: page size %d", ErrChecksum, pageSize)
	}
	if hdr[16] != kind {
		f.Close()
		return nil, fmt.Errorf("%w: page kind %d, want %d", ErrKind, hdr[16], kind)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	pf := &PageFile{f: f, pageSize: pageSize, kind: kind}
	if end > pageFileHeaderSize {
		pf.npages.Store(uint64(end-pageFileHeaderSize) / uint64(pageSize))
	}
	return pf, nil
}

// NumPages returns the allocation high-water mark.
func (pf *PageFile) NumPages() uint64 { return pf.npages.Load() }

// Allocate reserves the next page id. The page has no on-disk bytes until
// the first WritePage; reading it before then returns ErrTruncated.
func (pf *PageFile) Allocate() uint64 { return pf.npages.Add(1) - 1 }

func (pf *PageFile) offset(pid uint64) int64 {
	return pageFileHeaderSize + int64(pid)*int64(pf.pageSize)
}

// ReadPage reads page pid into buf (len must be PageSize) and verifies its
// checksum and recorded id. The payload is buf[PageHeaderSize:].
func (pf *PageFile) ReadPage(pid uint64, buf []byte) error {
	if len(buf) != pf.pageSize {
		return fmt.Errorf("store: ReadPage buffer %d bytes, want %d", len(buf), pf.pageSize)
	}
	if n := pf.npages.Load(); pid >= n {
		return fmt.Errorf("store: page %d out of range (%d pages)", pid, n)
	}
	if n, err := pf.f.ReadAt(buf, pf.offset(pid)); n < len(buf) {
		if err == nil || errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: page %d", ErrTruncated, pid)
		}
		return err
	}
	le := binary.LittleEndian
	if le.Uint32(buf) != crc32.Checksum(buf[4:], castagnoli) {
		return fmt.Errorf("%w: page %d", ErrChecksum, pid)
	}
	if buf[4] != pf.kind {
		return fmt.Errorf("%w: page %d kind %d, want %d", ErrKind, pid, buf[4], pf.kind)
	}
	if got := le.Uint64(buf[8:16]); got != pid {
		return fmt.Errorf("%w: page %d holds id %d (misdirected write)", ErrChecksum, pid, got)
	}
	return nil
}

// WritePage stamps buf's page header (kind, pid, checksum) and writes it at
// page pid. buf must be PageSize bytes; bytes 0..PageHeaderSize are
// overwritten, the payload beyond them is written as-is.
func (pf *PageFile) WritePage(pid uint64, buf []byte) error {
	if len(buf) != pf.pageSize {
		return fmt.Errorf("store: WritePage buffer %d bytes, want %d", len(buf), pf.pageSize)
	}
	if n := pf.npages.Load(); pid >= n {
		return fmt.Errorf("store: page %d not allocated (%d pages)", pid, n)
	}
	le := binary.LittleEndian
	buf[4] = pf.kind
	buf[5], buf[6], buf[7] = 0, 0, 0
	le.PutUint64(buf[8:16], pid)
	le.PutUint32(buf, crc32.Checksum(buf[4:], castagnoli))
	_, err := pf.f.WriteAt(buf, pf.offset(pid))
	return err
}

// Close closes the underlying file without syncing.
func (pf *PageFile) Close() error { return pf.f.Close() }
