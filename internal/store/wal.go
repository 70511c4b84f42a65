package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Write-ahead log format. An 8-byte file header ("QBHWAL\x00" plus a
// version byte) is followed by records, each framed by AppendRecord:
//
//	payloadLen uint32 (little-endian)
//	crc        uint32 CRC-32C of the payload
//	payload    []byte
//
// A record is durable once the file has been fsynced past it. Recovery
// scans records until the first torn or corrupt one and truncates the file
// there: a crash mid-append loses at most the records that were never
// acknowledged. Version 2 is the first whose payloads are song records
// (internal/qbh); a version-1 log held gob records and is refused.

var walMagic = [8]byte{'Q', 'B', 'H', 'W', 'A', 'L', 0, 2}

const (
	walHeaderSize = 8
	walRecHdrSize = 8
	// maxWALPayload bounds a single record: Begin refuses a bigger payload.
	maxWALPayload = 64 << 20
)

// WAL is an append-only, checksummed record log with group commit.
// Begin/commit pairs let callers append under their own lock and wait for
// durability outside it, so one fsync can cover many appends.
type WAL struct {
	fsys   FS
	path   string
	window time.Duration

	mu      sync.Mutex
	f       File
	err     error // sticky: after a failed fsync durability cannot be trusted
	size    int64 // bytes written, including the header
	synced  int64 // bytes known durable
	records int64
	pending *walBatch

	syncs       int64
	lastSyncDur time.Duration
	lastSyncAt  time.Time
}

type walBatch struct {
	done chan struct{}
	err  error
}

// WALStats is a point-in-time snapshot of log size and fsync activity.
type WALStats struct {
	Records  int64
	Bytes    int64 // file size including the 8-byte header
	Syncs    int64
	LastSync time.Duration // latency of the most recent fsync
	SyncedAt time.Time     // completion time of the most recent fsync
}

// Recovered reports what OpenWAL found in an existing log.
type Recovered struct {
	Records      [][]byte
	DroppedBytes int64 // torn/corrupt tail bytes truncated away
}

// OpenWAL opens or creates the log at path, replaying intact records and
// truncating any torn tail. window is the group-commit window: zero means
// every commit fsyncs immediately; a positive window batches concurrent
// commits into one fsync. A file that is not a WAL (wrong magic or
// version) is rejected with a typed error rather than truncated.
func OpenWAL(fsys FS, path string, window time.Duration) (*WAL, Recovered, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	w := &WAL{fsys: fsys, path: path, window: window, f: f}
	rec, err := w.recover()
	if err != nil {
		_ = f.Close()
		return nil, Recovered{}, err
	}
	return w, rec, nil
}

func (w *WAL) recover() (Recovered, error) {
	var rec Recovered
	fi, err := w.fsys.Stat(w.path)
	if err != nil {
		return rec, err
	}
	fileSize := fi.Size()

	var hdr [walHeaderSize]byte
	n, err := io.ReadFull(w.f, hdr[:])
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// Empty or torn at creation: (re)initialize. A torn header can
		// only come from a crash before the first record was acknowledged.
		rec.DroppedBytes = int64(n)
		if err := w.reinitLocked(); err != nil {
			return rec, err
		}
		return rec, w.fsys.SyncDir(filepath.Dir(w.path))
	case err != nil:
		return rec, err
	}
	if hdr != walMagic {
		if [7]byte(hdr[:7]) == [7]byte(walMagic[:7]) {
			return rec, fmt.Errorf("%w: wal version %d (supported: %d)", ErrVersion, hdr[7], walMagic[7])
		}
		return rec, fmt.Errorf("%w: not a wal file", ErrBadMagic)
	}

	// Scan records until the first torn or corrupt one. The file is read
	// whole: the records are kept anyway, and each payload aliases it.
	body := make([]byte, fileSize-walHeaderSize)
	if _, err := io.ReadFull(w.f, body); err != nil {
		return rec, err
	}
	rest := body
	for len(rest) > 0 {
		payload, next, err := NextRecord(rest)
		if err != nil {
			break
		}
		rec.Records = append(rec.Records, payload)
		rest = next
	}
	off := fileSize - int64(len(rest))
	rec.DroppedBytes = int64(len(rest))
	if rec.DroppedBytes > 0 {
		if err := w.f.Truncate(off); err != nil {
			return rec, err
		}
		if err := w.f.Sync(); err != nil {
			return rec, err
		}
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return rec, err
	}
	w.size = off
	w.synced = off
	w.records = int64(len(rec.Records))
	return rec, nil
}

// AppendRecord appends payload to dst as one framed record: its length and
// its CRC-32C, then the payload. It is the WAL's framing, and the framing
// of every record of a song run (internal/qbh).
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// NextRecord splits the record AppendRecord framed at the head of b from
// the bytes after it; the payload aliases b. A header that does not fit, or
// a length that runs past the end of b, is ErrTruncated, refused before
// anything is allocated; a payload that fails its CRC is ErrChecksum.
func NextRecord(b []byte) (payload, rest []byte, err error) {
	if len(b) < walRecHdrSize {
		return nil, nil, fmt.Errorf("%w: %d bytes cannot hold a record header", ErrTruncated, len(b))
	}
	length := binary.LittleEndian.Uint32(b[:4])
	if uint64(length) > uint64(len(b)-walRecHdrSize) {
		return nil, nil, fmt.Errorf("%w: a record of %d bytes, %d remain", ErrTruncated, length, len(b)-walRecHdrSize)
	}
	payload, rest = b[walRecHdrSize:walRecHdrSize+int(length)], b[walRecHdrSize+int(length):]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, fmt.Errorf("%w: record", ErrChecksum)
	}
	return payload, rest, nil
}

// reinitLocked truncates the file to a fresh, durable header.
func (w *WAL) reinitLocked() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.f.Write(walMagic[:]); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = walHeaderSize
	w.synced = walHeaderSize
	w.records = 0
	return nil
}

// Begin appends one record and returns a commit func that blocks until the
// record is durable (fsynced) and reports the outcome. Callers holding a
// lock append inside it and commit outside, letting the group-commit
// window merge fsyncs across callers. After any fsync failure the log is
// poisoned: every Begin and commit returns the sticky error.
func (w *WAL) Begin(payload []byte) func() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		err := w.err
		return func() error { return err }
	}
	if len(payload) > maxWALPayload {
		err := fmt.Errorf("store: wal record too large (%d bytes)", len(payload))
		return func() error { return err }
	}
	rec := AppendRecord(make([]byte, 0, walRecHdrSize+len(payload)), payload)
	if _, err := w.f.Write(rec); err != nil {
		// The file may now hold a torn record; recovery truncates it.
		w.err = fmt.Errorf("store: wal append: %w", err)
		err = w.err
		return func() error { return err }
	}
	w.size += int64(len(rec))
	w.records++
	if w.window <= 0 {
		return func() error { return w.Sync() }
	}
	if w.pending == nil {
		w.pending = &walBatch{done: make(chan struct{})}
		time.AfterFunc(w.window, func() { _ = w.Sync() })
	}
	b := w.pending
	return func() error {
		<-b.done
		return b.err
	}
}

// Append is Begin plus an immediate commit: it returns once the record is
// durable.
func (w *WAL) Append(payload []byte) error { return w.Begin(payload)() }

// Sync fsyncs everything appended so far and releases the pending
// group-commit batch with the result.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *WAL) flushLocked() error {
	b := w.pending
	w.pending = nil
	err := w.syncLocked()
	if b != nil {
		b.err = err
		close(b.done)
	}
	return err
}

func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.synced == w.size {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("store: wal fsync: %w", err)
		return w.err
	}
	w.synced = w.size
	w.syncs++
	w.lastSyncDur = time.Since(start)
	w.lastSyncAt = time.Now()
	return nil
}

// Reset empties the log after its contents have been made durable
// elsewhere (a snapshot). Any pending group-commit batch is released with
// success — the snapshot covers those records. Reset also clears a sticky
// fsync error: the failed appends are durable via the snapshot too.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.pending; b != nil {
		w.pending = nil
		b.err = nil
		close(b.done)
	}
	w.err = nil
	if err := w.reinitLocked(); err != nil {
		w.err = fmt.Errorf("store: wal reset: %w", err)
		return w.err
	}
	return nil
}

// Stats reports current log size and fsync activity.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Records:  w.records,
		Bytes:    w.size,
		Syncs:    w.syncs,
		LastSync: w.lastSyncDur,
		SyncedAt: w.lastSyncAt,
	}
}

// Close flushes pending commits and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.flushLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
