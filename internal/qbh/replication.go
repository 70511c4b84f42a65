package qbh

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"warping/internal/music"
	"warping/internal/store"
)

// Replication hooks on Durable: everything a shard-group primary needs to
// ship its songs to followers. The corpus only grows, so what a primary
// ships is its song sequence — the songs in the order they were added —
// addressed by (epoch, seq):
//
//   - seq counts songs in arrival order. A snapshot writes songs in that order
//     and WAL replay restores it, so neither a snapshot compaction nor a
//     restart moves a position.
//   - epoch is the promotion generation: PromoteEpoch raises it past the
//     old primary's, so a position the old primary issued is never read
//     against the promoted node's sequence.
//
// The WAL is local durability only. A position from another epoch, past
// the durable frontier or negative is served from seq 0: a follower
// applies songs idempotently by id (ApplySong), so re-sending songs it
// holds costs bandwidth, never correctness, and it converges on the union
// of both corpora.

// EpochFileName persists the promotion generation in the data directory.
// A directory without one is at epoch 1.
const EpochFileName = "epoch"

// ReplicationState is a position in a primary's song sequence: its epoch
// and the number of songs before it. The frontier — a primary's ReplState
// — is the position a fully caught-up follower holds.
type ReplicationState struct {
	Epoch int64
	Seq   int64
}

// AtLeast reports whether a consumer at position s holds everything up to
// position other. Positions of different epochs are different sequences:
// neither covers the other.
func (s ReplicationState) AtLeast(other ReplicationState) bool {
	return s.Epoch == other.Epoch && s.Seq >= other.Seq
}

func (s ReplicationState) String() string {
	return fmt.Sprintf("%d:%d", s.Epoch, s.Seq)
}

// ParseReplicationState parses the "epoch:seq" form produced by String —
// the wire encoding used in replication query parameters and headers.
func ParseReplicationState(v string) (ReplicationState, error) {
	e, q, ok := strings.Cut(v, ":")
	if !ok {
		return ReplicationState{}, fmt.Errorf("qbh: bad replication position %q", v)
	}
	epoch, err1 := strconv.ParseInt(e, 10, 64)
	seq, err2 := strconv.ParseInt(q, 10, 64)
	if err1 != nil || err2 != nil {
		return ReplicationState{}, fmt.Errorf("qbh: bad replication position %q", v)
	}
	return ReplicationState{Epoch: epoch, Seq: seq}, nil
}

func loadEpoch(fsys store.FS, dir string) (int64, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, EpochFileName), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 1, nil
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

// FS exposes the store's filesystem and Dir its data directory, so
// sibling subsystems (replication position files) share the same
// fault-injection surface and crash-safety primitives as the store.
func (d *Durable) FS() store.FS { return d.fsys }

// Dir returns the durable data directory.
func (d *Durable) Dir() string { return d.dir }

// ReplState reports the shippable frontier: the current epoch and the
// number of songs that are durable. A follower that has applied up to
// this position holds every acknowledged write.
func (d *Durable) ReplState() ReplicationState {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	return ReplicationState{Epoch: d.epoch, Seq: d.durable}
}

// PromoteEpoch persists and enters a generation strictly after both the
// local epoch and minEpoch. A follower being promoted to primary passes
// the epoch of its old primary: every position that primary issued then
// mismatches this node's epoch and is served from seq 0.
func (d *Durable) PromoteEpoch(minEpoch int64) error {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	next := max(d.epoch, minEpoch) + 1
	if err := store.WriteFileAtomic(d.fsys, filepath.Join(d.dir, EpochFileName),
		[]byte(strconv.FormatInt(next, 10))); err != nil {
		return fmt.Errorf("qbh: persisting epoch: %w", err)
	}
	d.epoch = next
	d.notifyLocked()
	return nil
}

// SongsFrom returns up to limit durable songs of the sequence from pos on,
// plus the position after them. A position from another epoch, past the
// frontier or negative is served from seq 0. An empty batch at a returned
// position equal to pos means the consumer is caught up.
func (d *Durable) SongsFrom(pos ReplicationState, limit int) ([]music.Song, ReplicationState) {
	cur := d.ReplState()
	from := pos.Seq
	if pos.Epoch != cur.Epoch || from < 0 || from > cur.Seq {
		from = 0
	}
	to := min(cur.Seq, from+int64(limit))
	return d.sys.songsInOrder(from, to), ReplicationState{Epoch: cur.Epoch, Seq: to}
}

// ApplySong idempotently adds a song under its existing id: a duplicate
// id is a no-op rather than an error, and a real apply is durable (WAL
// appended and fsynced) before returning. This is the follower-side
// ingest path for pulled songs and for the coordinator's imports, which
// is what makes double delivery harmless.
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
	return true, commit()
}

// DurableNotify returns a channel that is closed the next time the
// frontier moves — a committed write, a snapshot, a promotion. Callers
// long-polling for songs grab the channel, check the frontier, and wait on
// the channel if nothing new is there yet; the re-check-after-subscribe
// order makes the wakeup race-free.
func (d *Durable) DurableNotify() <-chan struct{} {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	return d.notifyCh
}

// advanceDurable moves the durable frontier to n songs if that is past it.
// Commits may return out of order, but a returned commit means the WAL is
// fsynced through its record, so every song before it is durable too.
func (d *Durable) advanceDurable(n int64) {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	if n > d.durable {
		d.durable = n
		d.notifyLocked()
	}
}

func (d *Durable) notifyLocked() {
	close(d.notifyCh)
	d.notifyCh = make(chan struct{})
}

// Digest returns an order-independent fingerprint of the song corpus:
// equal digests mean identical song sets (ids, titles, melodies). Chaos
// and idempotency tests compare primary and follower state with it, and
// every /replica/state reports it. It is the sum of songHash over the
// songs, kept as each song is added (songs are never removed), so reading
// it costs nothing per song.
func (s *System) Digest() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.digest
}

// songHash fingerprints one song's id, title and melody a word at a time:
// each word is xored in, then multiplied by an odd constant and
// xorshifted. Every step is a bijection of the running hash and of the
// word, so songs that differ in one note hash apart.
func songHash(song music.Song) uint64 {
	h := mix(0x9e3779b97f4a7c15, uint64(song.ID))
	h = mix(h, uint64(len(song.Title)))
	for i := 0; i < len(song.Title); i++ {
		h = mix(h, uint64(song.Title[i]))
	}
	h = mix(h, uint64(len(song.Melody)))
	for _, n := range song.Melody {
		h = mix(h, uint64(n.Pitch)<<32|uint64(uint32(n.Duration)))
	}
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

// HasSong reports whether a song with the given id exists.
func (s *System) HasSong(id int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.songs[id]
	return ok
}
