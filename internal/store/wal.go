package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Write-ahead log format. An 8-byte file header ("QBHWAL\x00" plus a
// version byte) is followed by records:
//
//	payloadLen uint32 (little-endian)
//	crc        uint32 CRC-32C of the payload
//	payload    []byte
//
// A record is durable once the file has been fsynced past it. Recovery
// scans records until the first torn or corrupt one and truncates the file
// there: a crash mid-append loses at most the records that were never
// acknowledged.

var walMagic = [8]byte{'Q', 'B', 'H', 'W', 'A', 'L', 0, 1}

const (
	walHeaderSize = 8
	walRecHdrSize = 8
	// maxWALPayload bounds a single record: Begin refuses a bigger payload,
	// and a reader takes a bigger length field for corruption.
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

	// Scan records until the first torn or corrupt one.
	off := int64(walHeaderSize)
	for off < fileSize {
		payload, err := nextRecord(w.f, off, fileSize)
		if errors.Is(err, errTornRecord) || errors.Is(err, ErrChecksum) {
			break
		}
		if err != nil {
			return rec, err
		}
		rec.Records = append(rec.Records, payload)
		off += walRecHdrSize + int64(len(payload))
	}
	rec.DroppedBytes = fileSize - off
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

// errTornRecord marks bytes at a record boundary that cannot be a whole
// record: a header that does not fit, or a length field that runs past the
// end of the file. Recovery truncates the log there.
var errTornRecord = errors.New("store: torn wal record")

// nextRecord reads the record at offset off from r, which is positioned
// there. The record must end by limit, the file size: a length field that
// claims more is refused before its payload is allocated (errTornRecord),
// as is a header that does not fit. A payload that fails its CRC is
// ErrChecksum.
func nextRecord(r io.Reader, off, limit int64) ([]byte, error) {
	if limit-off < walRecHdrSize {
		return nil, fmt.Errorf("%w: %d bytes after offset %d cannot hold a record", errTornRecord, limit-off, off)
	}
	var rh [walRecHdrSize]byte
	if _, err := io.ReadFull(r, rh[:]); err != nil {
		return nil, fmt.Errorf("store: wal read at %d: %w", off, err)
	}
	length := binary.LittleEndian.Uint32(rh[:4])
	if length > maxWALPayload || off+walRecHdrSize+int64(length) > limit {
		return nil, fmt.Errorf("%w: record at offset %d runs past %d", errTornRecord, off, limit)
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
	rec := make([]byte, walRecHdrSize+len(payload))
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	copy(rec[walRecHdrSize:], payload)
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

// Err reports the sticky failure state, nil while the log is healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
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
