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
type WALRecord struct {
	Offset  int64
	Payload []byte
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
	var rh [walRecHdrSize]byte
	for next < limit && (total == 0 || total < maxBytes) {
		if limit-next < walRecHdrSize {
			return nil, 0, fmt.Errorf("%w: %d bytes of durable log after offset %d cannot hold a record", ErrOffsetOutOfRange, limit-next, next)
		}
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			return nil, 0, fmt.Errorf("store: wal read at %d: %w", next, err)
		}
		length := binary.LittleEndian.Uint32(rh[:4])
		crc := binary.LittleEndian.Uint32(rh[4:8])
		if length > maxWALRecord || next+walRecHdrSize+int64(length) > limit {
			// A length field that runs past the durable watermark means the
			// offset was mid-record: this is not a boundary.
			return nil, 0, fmt.Errorf("%w: no record boundary at offset %d", ErrOffsetOutOfRange, next)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, 0, fmt.Errorf("store: wal read at %d: %w", next, err)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil, 0, fmt.Errorf("%w: record at offset %d", ErrChecksum, next)
		}
		recs = append(recs, WALRecord{Offset: next, Payload: payload})
		total += len(payload)
		next += walRecHdrSize + int64(length)
	}
	return recs, next, nil
}
