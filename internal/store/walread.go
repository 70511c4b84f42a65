package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Offset-addressed WAL reads for replication shipping. A follower tracks
// its replay position as a byte offset into the primary's log and asks for
// "everything durable past offset O"; the primary answers from a second
// read-only handle so shipping never perturbs the append path. Offsets are
// stable within one log generation — Reset (snapshot compaction) starts a
// new generation, which callers track as an epoch above this layer and
// resolve by shipping a snapshot instead.

// ErrOffsetOutOfRange marks a read from an offset that is not a record
// boundary of the current log: before the file header, past the durable
// watermark, or inside a record. The caller's position is from another log
// generation (or corrupt) and must be re-established from a snapshot.
var ErrOffsetOutOfRange = errors.New("store: wal offset out of range")

// WALStartOffset is the offset of the first record in any WAL: reads start
// here on a freshly reset (or brand-new) log.
const WALStartOffset = walHeaderSize

// WALRecord is one shipped log record: its byte offset in the log plus the
// payload. Offset+len(framing)+len(Payload) is the next record's offset.
// It is also the /replica/wal wire type, the payload base64 in JSON.
type WALRecord struct {
	Offset  int64  `json:"offset"`
	Payload []byte `json:"payload"`
}

// DurableOffset reports the byte offset up to which the log is known
// fsynced. Records at offsets below it are safe to ship; bytes past it may
// still be torn away by a crash.
func (w *WAL) DurableOffset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// ReadFrom returns durable records starting at offset, at least one (when
// any exists) and up to maxBytes of payload in total (<= 0 selects 1 MiB).
// next is the offset to resume from; next == offset with no records means
// the reader is caught up. Reads use a separate handle and only run up to
// the durable watermark, so they are safe concurrently with appends; they
// are NOT safe concurrently with Reset, which the caller must exclude (the
// replication layer holds its shipping lock across snapshot+reset).
//
// An offset that does not land on a record boundary — typically a position
// from a previous log generation — returns ErrOffsetOutOfRange.
func (w *WAL) ReadFrom(offset int64, maxBytes int) (recs []WALRecord, next int64, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	w.mu.Lock()
	limit := w.synced
	fsys, path := w.fsys, w.path
	w.mu.Unlock()

	if offset < WALStartOffset || offset > limit {
		return nil, 0, fmt.Errorf("%w: offset %d outside [%d, %d]", ErrOffsetOutOfRange, offset, WALStartOffset, limit)
	}
	if offset == limit {
		return nil, offset, nil
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, 0, err
	}

	next = offset
	total := 0
	for next < limit && (total == 0 || total < maxBytes) {
		payload, err := nextRecord(f, next, limit)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, WALRecord{Offset: next, Payload: payload})
		total += len(payload)
		next += walRecHdrSize + int64(len(payload))
	}
	return recs, next, nil
}

// nextRecord reads the record at offset off from r, which is positioned
// there. The record must end by limit — the file end to recovery, the
// durable watermark to shipping — and a length field that claims more is
// refused before its payload is allocated: ErrOffsetOutOfRange, as is a
// header that does not fit (the bytes at off are a torn tail, or off is
// not a record boundary). A payload that fails its CRC is ErrChecksum.
func nextRecord(r io.Reader, off, limit int64) ([]byte, error) {
	if limit-off < walRecHdrSize {
		return nil, fmt.Errorf("%w: %d bytes after offset %d cannot hold a record", ErrOffsetOutOfRange, limit-off, off)
	}
	var rh [walRecHdrSize]byte
	if _, err := io.ReadFull(r, rh[:]); err != nil {
		return nil, fmt.Errorf("store: wal read at %d: %w", off, err)
	}
	length := binary.LittleEndian.Uint32(rh[:4])
	if length > maxWALRecord || off+walRecHdrSize+int64(length) > limit {
		return nil, fmt.Errorf("%w: no record boundary at offset %d", ErrOffsetOutOfRange, off)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("store: wal read at %d: %w", off, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rh[4:8]) {
		return nil, fmt.Errorf("%w: record at offset %d", ErrChecksum, off)
	}
	return payload, nil
}
