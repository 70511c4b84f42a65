package qbh

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"warping/internal/music"
	"warping/internal/store"
)

// Replication hooks on Durable: everything a shard-group primary needs to
// ship its state to followers, and everything a follower needs to apply
// the shipped stream idempotently. The unit of shipping is the existing
// durability machinery — the checksummed snapshot container and the WAL —
// addressed by (epoch, offset):
//
//   - epoch identifies one WAL generation. Every snapshot compaction
//     resets the WAL and bumps the epoch, so a follower position from an
//     older generation can never be misread against the new log.
//   - offset is a byte offset into the current WAL (store.WALRecord
//     framing). Follower positions only ever land on record boundaries.
//
// A follower whose (epoch, offset) no longer matches the primary —
// because the primary compacted past it, restarted, or the follower is
// brand new — falls back to the snapshot: ErrSnapshotNeeded tells it to
// fetch the full container and bulk-apply, after which it resumes tailing
// the WAL from the epoch and offset the snapshot reported.

// ErrSnapshotNeeded reports that a follower's WAL position cannot be
// served — the log generation changed or the offset is not a boundary —
// and the follower must re-sync from the current snapshot.
var ErrSnapshotNeeded = errors.New("qbh: wal position unavailable, snapshot needed")

// EpochFileName persists the WAL generation counter in the data
// directory, updated atomically right after each snapshot replacement.
const EpochFileName = "epoch"

// ReplicationState is a point-in-time (epoch, durable offset) pair: the
// position a fully caught-up follower would hold.
type ReplicationState struct {
	Epoch int64
	// Offset is the durable byte offset of the current WAL: records below
	// it are safe to ship.
	Offset int64
}

// AtLeast reports whether a consumer at position s has durably applied
// everything up to position other. A later epoch subsumes every earlier
// one: the snapshot that started it covered the whole earlier log.
func (s ReplicationState) AtLeast(other ReplicationState) bool {
	if s.Epoch != other.Epoch {
		return s.Epoch > other.Epoch
	}
	return s.Offset >= other.Offset
}

func (s ReplicationState) String() string {
	return fmt.Sprintf("%d:%d", s.Epoch, s.Offset)
}

// ParseReplicationState parses the "epoch:offset" form produced by
// String — the wire encoding used in replication query parameters.
func ParseReplicationState(v string) (ReplicationState, error) {
	e, o, ok := strings.Cut(v, ":")
	if !ok {
		return ReplicationState{}, fmt.Errorf("qbh: bad replication position %q", v)
	}
	epoch, err1 := strconv.ParseInt(e, 10, 64)
	offset, err2 := strconv.ParseInt(o, 10, 64)
	if err1 != nil || err2 != nil {
		return ReplicationState{}, fmt.Errorf("qbh: bad replication position %q", v)
	}
	return ReplicationState{Epoch: epoch, Offset: offset}, nil
}

func loadEpoch(fsys store.FS, dir string) (int64, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, EpochFileName), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, 64))
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("qbh: corrupt epoch file: %w", err)
	}
	return n, nil
}

func (d *Durable) persistEpochLocked(epoch int64) error {
	return store.WriteFileAtomic(d.fsys, filepath.Join(d.dir, EpochFileName),
		[]byte(strconv.FormatInt(epoch, 10)))
}

// FS exposes the store's filesystem and Dir its data directory, so
// sibling subsystems (replication position files) share the same
// fault-injection surface and crash-safety primitives as the store.
func (d *Durable) FS() store.FS { return d.fsys }

// Dir returns the durable data directory.
func (d *Durable) Dir() string { return d.dir }

// Epoch returns the current WAL generation.
func (d *Durable) Epoch() int64 {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	return d.epoch
}

// ReplState reports the shippable frontier: the current epoch and the
// durable WAL offset. A follower that has applied up to this position
// holds every acknowledged write.
func (d *Durable) ReplState() ReplicationState {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	return ReplicationState{Epoch: d.epoch, Offset: d.wal.DurableOffset()}
}

// OpenSnapshot opens the current snapshot container for shipping,
// together with the position a consumer of it holds afterwards: the
// snapshot's epoch with the WAL start offset (records appended since the
// snapshot are shipped separately, from that offset on). The epoch and
// the file handle are taken under the same lock, so a concurrent
// compaction cannot pair the new epoch with the old container or vice
// versa; the returned reader stays valid even if the file is replaced
// while it is being streamed (the rename unlinks, the handle keeps the
// inode).
func (d *Durable) OpenSnapshot() (rc io.ReadCloser, pos ReplicationState, size int64, err error) {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	fi, err := d.fsys.Stat(d.snapPath)
	if err != nil {
		return nil, ReplicationState{}, 0, fmt.Errorf("qbh: snapshot unavailable: %w", err)
	}
	f, err := d.fsys.OpenFile(d.snapPath, os.O_RDONLY, 0)
	if err != nil {
		return nil, ReplicationState{}, 0, fmt.Errorf("qbh: opening snapshot: %w", err)
	}
	return f, ReplicationState{Epoch: d.epoch, Offset: store.WALStartOffset}, fi.Size(), nil
}

// WALRecordsFrom returns durable WAL records from the given position, up
// to maxBytes of payload (<= 0 selects the store default), plus the
// position to resume from. A position from another epoch — or one that is
// not a record boundary — returns ErrSnapshotNeeded: the follower must
// re-sync from the snapshot. Holding ingestMu excludes compaction, so the
// epoch check and the file read are one atomic step.
func (d *Durable) WALRecordsFrom(pos ReplicationState, maxBytes int) ([]store.WALRecord, ReplicationState, error) {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	if pos.Epoch != d.epoch {
		return nil, ReplicationState{}, fmt.Errorf("%w: follower at epoch %d, log at epoch %d", ErrSnapshotNeeded, pos.Epoch, d.epoch)
	}
	recs, next, err := d.wal.ReadFrom(pos.Offset, maxBytes)
	if err != nil {
		if errors.Is(err, store.ErrOffsetOutOfRange) || errors.Is(err, store.ErrChecksum) {
			return nil, ReplicationState{}, fmt.Errorf("%w: %v", ErrSnapshotNeeded, err)
		}
		return nil, ReplicationState{}, err
	}
	return recs, ReplicationState{Epoch: pos.Epoch, Offset: next}, nil
}

// ApplyReplicated applies one shipped WAL record to a follower: decode,
// apply to memory if the song is new, and append to the follower's own
// WAL so the write is locally durable before the follower acknowledges
// the position. Applying the same record twice — a re-shipped segment, a
// snapshot overlapping the WAL tail — is a no-op (applied=false): replay
// is idempotent by song id.
func (d *Durable) ApplyReplicated(payload []byte) (applied bool, err error) {
	e, err := decodeWALEntry(payload)
	if err != nil {
		return false, fmt.Errorf("qbh: corrupt replicated record: %w", err)
	}
	if e.Op != walOpAddSong {
		return false, fmt.Errorf("qbh: replicated record has unknown op %d", e.Op)
	}
	return d.ApplySong(e.Song)
}

// ApplySong idempotently adds a song under its existing id: a duplicate
// id is a no-op rather than an error, and a real apply is durable (WAL
// appended and fsynced) before returning. This is the follower-side
// ingest path: both WAL tailing and snapshot bulk-apply funnel through
// it, which is what makes double-delivery harmless.
func (d *Durable) ApplySong(song music.Song) (applied bool, err error) {
	d.ingestMu.Lock()
	if d.sys.HasSong(song.ID) {
		d.ingestMu.Unlock()
		return false, nil
	}
	if err := d.sys.AddSong(song); err != nil {
		d.ingestMu.Unlock()
		return false, err
	}
	commit := d.appendLocked(song)
	d.ingestMu.Unlock()
	if err := commit(); err != nil {
		return true, err
	}
	d.notifyDurable()
	return true, nil
}

// ApplySnapshot bulk-applies every song of a shipped snapshot that this
// system does not already hold. It is the follower's catch-up path when
// its WAL position is gone (ErrSnapshotNeeded): rather than swapping out
// the whole in-memory system — which would stall reads — the add-only
// nature of the corpus lets a snapshot install be just "apply what I'm
// missing", served concurrently with queries. The snapshot is decoded, not
// built: only the songs applied are indexed, each once, in this system's
// storage mode. Returns the number of songs applied.
func (d *Durable) ApplySnapshot(r io.Reader) (int, error) {
	snap, err := readSnapshot(r)
	if err != nil {
		return 0, fmt.Errorf("qbh: loading shipped snapshot: %w", err)
	}
	applied := 0
	for _, song := range snap.Songs {
		ok, err := d.ApplySong(song)
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
		}
	}
	return applied, nil
}

// DurableNotify returns a channel that is closed the next time anything
// becomes durable — a committed write or a snapshot compaction. Callers
// long-polling the WAL grab the channel, check the frontier, and wait on
// the channel if nothing new is there yet; the re-check-after-subscribe
// order makes the wakeup race-free.
func (d *Durable) DurableNotify() <-chan struct{} {
	d.notifyMu.Lock()
	defer d.notifyMu.Unlock()
	return d.notifyCh
}

func (d *Durable) notifyDurable() {
	d.notifyMu.Lock()
	close(d.notifyCh)
	d.notifyCh = make(chan struct{})
	d.notifyMu.Unlock()
}

// Digest returns an order-independent fingerprint of the song corpus:
// equal digests mean identical song sets (ids, titles, melodies). Chaos
// and idempotency tests compare primary and follower state with it.
func (s *System) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, song := range s.Songs() {
		put(uint64(song.ID))
		put(uint64(len(song.Title)))
		h.Write([]byte(song.Title))
		put(uint64(len(song.Melody)))
		for _, n := range song.Melody {
			put(uint64(n.Pitch))
			put(uint64(n.Duration))
		}
	}
	return h.Sum64()
}

// HasSong reports whether a song with the given id exists.
func (s *System) HasSong(id int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.songs[id]
	return ok
}
