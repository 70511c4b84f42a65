package qbh

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/store"
	"warping/internal/ts"
)

// ErrNotDurable marks a write that was applied in memory but could not be
// made durable (WAL append or fsync failed). The song is queryable until
// the process exits and may or may not survive a crash; callers should
// report the failure rather than acknowledge the write.
var ErrNotDurable = errors.New("qbh: write not acknowledged as durable")

// Data directory layout: one snapshot plus one write-ahead log.
const (
	// SnapshotFileName is the checksummed full-database snapshot, replaced
	// atomically (temp file → fsync → rename → directory fsync).
	SnapshotFileName = "snapshot.qbh"
	// WALFileName is the write-ahead log of mutations since the snapshot.
	WALFileName = "wal.log"
)

// WAL record operations.
const walOpAddSong = 1

// walEntry is one WAL record: an operation code plus its payload. Records
// are individually gob-encoded so each is self-describing and the log
// survives partial replays.
type walEntry struct {
	Op   uint8
	Song music.Song
}

func encodeWALEntry(e walEntry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWALEntry(p []byte) (walEntry, error) {
	var e walEntry
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&e)
	return e, err
}

// DurableOptions configures OpenDurable. The zero value of any field
// selects the default.
type DurableOptions struct {
	// GroupCommit is the fsync batching window for AddSong: 0 fsyncs every
	// write individually; a positive window lets concurrent writes share
	// one fsync (each write still waits for its fsync before returning).
	GroupCommit time.Duration
	// SnapshotInterval compacts the WAL into a fresh snapshot at least
	// this often while mutations are pending. <= 0 disables interval-based
	// snapshots (thresholds below still apply).
	SnapshotInterval time.Duration
	// SnapshotWALRecords triggers compaction once the WAL holds this many
	// records (default 4096; negative disables).
	SnapshotWALRecords int64
	// SnapshotWALBytes triggers compaction once the WAL reaches this size
	// (default 64 MiB; negative disables).
	SnapshotWALBytes int64
	// Build constructs the initial system when the data directory has no
	// snapshot (e.g. from a MIDI corpus or a generated demo database). When
	// Pager is set it should build with Options.Pager = *ResolvePager(dir);
	// a RAM system is accepted and rebuilt out-of-core, at twice the cost.
	Build func() (*System, error)
	// Pager, when non-nil, runs the recovered system out-of-core: the
	// phrase corpus and R-tree base page through a buffer pool of
	// Pager.PoolPages pages instead of living in RAM arenas. Pager.Dir
	// defaults to "<dir>/pages" and Pager.FS to FS. Page files are derived
	// state — recovery wipes and rebuilds them from the snapshot + WAL, so
	// enabling, disabling or resizing the pool across restarts is always
	// safe.
	Pager *pager.Config
	// FS is the filesystem; nil selects the real one. Tests inject faults
	// through this.
	FS store.FS
	// Logf receives recovery and background-snapshot diagnostics; nil
	// selects log.Printf.
	Logf func(format string, args ...interface{})
}

// ResolvePager returns the page-space configuration OpenDurable(dir, o)
// runs the system with: a copy of o.Pager with Dir defaulted to
// "<dir>/pages" and FS to o.FS, or nil when o.Pager is nil. A Build
// function that puts it in its Options.Pager hands OpenDurable a system that
// is already out-of-core, so a first paged start builds the corpus once.
func (o DurableOptions) ResolvePager(dir string) *pager.Config {
	if o.Pager == nil {
		return nil
	}
	c := *o.Pager
	if c.Dir == "" {
		c.Dir = filepath.Join(dir, "pages")
	}
	if c.FS == nil {
		c.FS = o.FS
	}
	return &c
}

func (o *DurableOptions) fill() {
	if o.SnapshotWALRecords == 0 {
		o.SnapshotWALRecords = 4096
	}
	if o.SnapshotWALBytes == 0 {
		o.SnapshotWALBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = store.OS()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// DurabilityStats reports the durability state: the /stats "durability"
// section as it stands.
type DurabilityStats struct {
	Dir             string  `json:"dir"`
	SnapshotAgeSec  float64 `json:"snapshot_age_sec"` // since the last successful snapshot
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	Snapshots       int64   `json:"snapshots"` // written by this process
	WALRecords      int64   `json:"wal_records"`
	WALBytes        int64   `json:"wal_bytes"`
	WALSyncs        int64   `json:"wal_syncs"`
	LastFsyncMicros int64   `json:"last_fsync_micros"` // latency of the most recent WAL fsync
	// ReapedSongs counts songs removed by compaction reaping (migrated to
	// another shard group by a committed ring change). Not on /stats.
	ReapedSongs int64 `json:"-"`
}

// reader is the part of a System a durable backend passes through
// untouched: queries, catalogue reads and counters. Durable embeds it, and
// replica.Node embeds Durable, so neither has System.RemoveSong, Index or
// Save in its method set — a mutation that bypasses the WAL is unreachable
// through a durable backend — and every call is the System's own method,
// not a forwarding copy of it.
type reader interface {
	Query(pitch ts.Series, topK int, delta float64) ([]SongMatch, index.QueryStats)
	QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]SongMatch, index.QueryStats, error)
	NumSongs() int
	NumPhrases() int
	Songs() []music.Song
	HasSong(id int64) bool
	Digest() uint64
	EnableResultCache(maxBytes int64)
	PoolStats() (pager.Stats, bool)
}

// Durable is a System backed by a data directory: every AddSong is
// appended to a checksummed write-ahead log and fsynced before it is
// acknowledged, a background snapshotter compacts the log into an
// atomically-replaced snapshot, and OpenDurable recovers snapshot + WAL
// tail after a crash (truncating a torn final record rather than failing).
//
// The invariant, proven by fault-injection tests: every acknowledged
// AddSong survives a crash; an unacknowledged one either survives whole or
// vanishes; recovery never panics and never fabricates data.
type Durable struct {
	reader
	sys      *System
	fsys     store.FS
	opts     DurableOptions
	dir      string
	snapPath string
	wal      *store.WAL

	// ingestMu serializes {memory add + WAL append} against {snapshot +
	// WAL reset} — the only two orderings that matter for the acked-write-
	// survives-a-crash invariant. A record appended before a snapshot
	// acquires ingestMu is already in the songs map, hence in the snapshot
	// that covers its reset; one appended after survives in the fresh WAL.
	// Queries never take ingestMu: they keep flowing during both ingest
	// and compaction (the System is internally synchronized).
	// Replication reads (WALRecordsFrom, OpenSnapshot) also hold it, so a
	// shipped batch is always from one consistent (epoch, WAL) pair.
	ingestMu sync.Mutex

	// epoch is the WAL generation, guarded by ingestMu and persisted in
	// the data directory: it advances on every snapshot compaction, which
	// is what invalidates follower WAL offsets (see replication.go).
	epoch int64

	// compactKeep, when non-nil, filters the corpus at snapshot
	// compaction: songs it rejects are reaped — removed from memory right
	// before the snapshot that makes the removal durable. Guarded by
	// ingestMu (set by SetCompactKeep, read by snapshotTo).
	compactKeep func(music.Song) bool
	reaped      atomic.Int64

	// notifyCh is closed and replaced whenever something becomes durable;
	// replication long-polls wait on it (DurableNotify).
	notifyMu sync.Mutex
	notifyCh chan struct{}

	lastSnapshot  atomic.Int64 // unix nanos of last successful snapshot
	snapshotBytes atomic.Int64
	snapshots     atomic.Int64

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// OpenDurable opens (or initializes) the data directory and returns a
// recovered, serving-ready system. Recovery order: load the snapshot if
// present (otherwise build the initial system via opts.Build), replay the
// WAL tail on top, then — if anything was replayed or the snapshot was
// missing — write a fresh snapshot and reset the WAL so the directory is
// compact and self-contained before serving starts.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	opts.fill()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qbh: creating data dir: %w", err)
	}
	snapPath := filepath.Join(dir, SnapshotFileName)
	pcfg := opts.ResolvePager(dir)

	var sys *System
	hadSnapshot := false
	if _, err := fsys.Stat(snapPath); err == nil {
		f, err := fsys.OpenFile(snapPath, os.O_RDONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("qbh: opening snapshot: %w", err)
		}
		sys, err = loadWith(bufio.NewReader(f), pcfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("qbh: loading snapshot %s: %w", snapPath, err)
		}
		hadSnapshot = true
	} else if opts.Build != nil {
		var err error
		sys, err = opts.Build()
		if err != nil {
			return nil, fmt.Errorf("qbh: building initial database: %w", err)
		}
		if pcfg != nil && sys.space == nil {
			// Fallback for a builder that hands back a RAM system (one loaded
			// from a file, a test's): rebuild it out-of-core. Construction is
			// deterministic, so this is a pure mode change, but it builds the
			// corpus twice — start-up time and peak memory a paged node is
			// run to avoid. A builder that sets Options.Pager from
			// ResolvePager comes up paged and the corpus is built once.
			songs := sys.Songs()
			sopts := sys.opts
			sopts.Pager = *pcfg
			_ = sys.Close()
			if sys, err = Build(songs, sopts); err != nil {
				return nil, fmt.Errorf("qbh: rebuilding initial database out-of-core: %w", err)
			}
		}
	} else {
		return nil, fmt.Errorf("qbh: no snapshot in %s and no initial builder", dir)
	}

	wal, rec, err := store.OpenWAL(fsys, filepath.Join(dir, WALFileName), opts.GroupCommit)
	if err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("qbh: opening wal: %w", err)
	}
	if rec.DroppedBytes > 0 {
		opts.Logf("qbh: wal recovery truncated %d bytes of torn tail", rec.DroppedBytes)
	}
	replayed := 0
	for i, payload := range rec.Records {
		e, err := decodeWALEntry(payload)
		if err != nil {
			wal.Close()
			_ = sys.Close()
			return nil, fmt.Errorf("qbh: wal record %d: %w", i, err)
		}
		switch e.Op {
		case walOpAddSong:
			if _, dup := sys.songs[e.Song.ID]; dup {
				// Already covered by the snapshot: a crash landed between
				// the snapshot rename and the WAL reset. Replay is
				// idempotent by song id.
				continue
			}
			if err := sys.AddSong(e.Song); err != nil {
				wal.Close()
				_ = sys.Close()
				return nil, fmt.Errorf("qbh: replaying wal record %d: %w", i, err)
			}
			replayed++
		default:
			wal.Close()
			_ = sys.Close()
			return nil, fmt.Errorf("qbh: wal record %d: unknown op %d", i, e.Op)
		}
	}
	if replayed > 0 {
		opts.Logf("qbh: replayed %d wal records", replayed)
	}

	epoch, err := loadEpoch(fsys, dir)
	if err != nil {
		wal.Close()
		_ = sys.Close()
		return nil, err
	}
	d := &Durable{
		reader:   sys,
		sys:      sys,
		fsys:     fsys,
		opts:     opts,
		dir:      dir,
		snapPath: snapPath,
		wal:      wal,
		epoch:    epoch,
		notifyCh: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if fi, err := fsys.Stat(snapPath); err == nil {
		d.snapshotBytes.Store(fi.Size())
		d.lastSnapshot.Store(fi.ModTime().UnixNano())
	}
	if hadSnapshot && d.epoch == 0 {
		// A directory seeded with a foreign snapshot but no epoch file (a
		// bootstrapped replica): epoch 0 must never be live, because the
		// zero replication position relies on epoch-mismatching every real
		// log to force a snapshot sync. In-memory only — recovery must not
		// require a disk write — and deterministic across restarts of the
		// same log; applied before any replay compaction so a WAL reset
		// below always mints an epoch past the floored one.
		d.epoch = 1
	}
	if !hadSnapshot || replayed > 0 {
		if err := d.Snapshot(); err != nil {
			wal.Close()
			_ = sys.Close()
			return nil, fmt.Errorf("qbh: initial snapshot: %w", err)
		}
	}
	go d.snapshotLoop()
	return d, nil
}

// AddSong indexes the song and blocks until the write is durable: the WAL
// record is appended under ingestMu and fsynced (sharing the group-commit
// window with concurrent writers) before AddSong returns. An error means
// the write was NOT acknowledged as durable — after a crash it may or may
// not be present. Queries are never blocked: ingestMu is not on any query
// path.
func (d *Durable) AddSong(song music.Song) error {
	d.ingestMu.Lock()
	if err := d.sys.AddSong(song); err != nil {
		d.ingestMu.Unlock()
		return err
	}
	commit := d.appendLocked(song)
	d.ingestMu.Unlock()
	if err := commit(); err != nil {
		return err
	}
	d.notifyDurable()
	return nil
}

// AddSongTitled allocates the next song id, indexes the melody and blocks
// until the write is durable, like AddSong.
func (d *Durable) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	d.ingestMu.Lock()
	song, err := d.sys.AddSongTitled(title, melody)
	if err != nil {
		d.ingestMu.Unlock()
		return music.Song{}, err
	}
	commit := d.appendLocked(song)
	d.ingestMu.Unlock()
	if err := commit(); err != nil {
		return music.Song{}, err
	}
	d.notifyDurable()
	return song, nil
}

// appendLocked writes the WAL record while holding ingestMu and returns
// the commit func to wait on after releasing it, so the fsync wait blocks
// neither queries nor the next ingest's memory add.
func (d *Durable) appendLocked(song music.Song) func() error {
	payload, err := encodeWALEntry(walEntry{Op: walOpAddSong, Song: song})
	if err != nil {
		err = fmt.Errorf("%w: encoding wal record: %v", ErrNotDurable, err)
		return func() error { return err }
	}
	commit := d.wal.Begin(payload)
	return func() error {
		if err := commit(); err != nil {
			return fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
		return nil
	}
}

// Snapshot serializes the whole system into an atomically-replaced
// snapshot file and resets the WAL. It holds ingestMu, so it runs
// exclusively with mutations — but not with queries, which keep making
// progress throughout (Save is read-pure). Pending group commits are
// released with success because the snapshot covers their records.
func (d *Durable) Snapshot() error { return d.snapshotTo(0) }

// PromoteEpoch snapshots and starts a fresh WAL generation strictly
// after both the local epoch and minEpoch. A follower being promoted to
// primary passes the epoch of its old primary's log: offsets in the new
// primary's WAL then can never alias positions the dead primary issued —
// any replica presenting such a position epoch-mismatches and re-syncs
// from the snapshot instead of misreading the new log.
func (d *Durable) PromoteEpoch(minEpoch int64) error {
	return d.snapshotTo(minEpoch)
}

// SetCompactKeep installs (or, with nil, clears) the compaction reap
// filter: at every snapshot compaction, songs for which keep returns false
// are removed from the system immediately before the snapshot is written,
// so the snapshot — the durability root — never contains them and the WAL
// reset needs no tombstone records. This is how a shard group sheds songs
// that a committed ring change migrated to another group: the filter is
// derived state (re-installed from every observed view), reaping is
// idempotent, and a crash between the removal and the snapshot rename
// merely resurrects the songs until the next compaction reaps them again.
func (d *Durable) SetCompactKeep(keep func(music.Song) bool) {
	d.ingestMu.Lock()
	d.compactKeep = keep
	d.ingestMu.Unlock()
}

// ReapedSongs reports how many songs compaction reaping has removed over
// this process's lifetime.
func (d *Durable) ReapedSongs() int64 { return d.reaped.Load() }

// reapLocked applies the compact-keep filter under ingestMu; it runs as
// the first step of snapshotTo so the snapshot that follows is the one
// that persists the removals.
func (d *Durable) reapLocked() {
	if d.compactKeep == nil {
		return
	}
	reaped := 0
	for _, song := range d.sys.Songs() {
		if d.compactKeep(song) {
			continue
		}
		if d.sys.RemoveSong(song.ID) {
			reaped++
		}
	}
	if reaped > 0 {
		d.reaped.Add(int64(reaped))
		d.opts.Logf("qbh: compaction reaped %d migrated-away song(s)", reaped)
	}
}

func (d *Durable) snapshotTo(minEpoch int64) error {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	d.reapLocked()
	var buf bytes.Buffer
	if err := d.sys.Save(&buf); err != nil {
		return fmt.Errorf("qbh: serializing snapshot: %w", err)
	}
	if err := store.WriteFileAtomic(d.fsys, d.snapPath, buf.Bytes()); err != nil {
		return fmt.Errorf("qbh: writing snapshot: %w", err)
	}
	d.snapshotBytes.Store(int64(buf.Len()))
	d.lastSnapshot.Store(time.Now().UnixNano())
	d.snapshots.Add(1)
	// The epoch advances BEFORE the WAL reset and is itself durable first:
	// followers can then never mistake an offset into the old log for one
	// into the new. A crash between the two steps only over-invalidates
	// (followers re-sync from the snapshot), never misreads.
	d.epoch++
	if d.epoch <= minEpoch {
		d.epoch = minEpoch + 1
	}
	if err := d.persistEpochLocked(d.epoch); err != nil {
		return fmt.Errorf("qbh: persisting epoch: %w", err)
	}
	if err := d.wal.Reset(); err != nil {
		return fmt.Errorf("qbh: resetting wal: %w", err)
	}
	d.notifyDurable()
	return nil
}

// snapshotLoop compacts the WAL in the background whenever the size/count
// thresholds or the interval are exceeded.
func (d *Durable) snapshotLoop() {
	defer close(d.done)
	poll := time.Second
	if iv := d.opts.SnapshotInterval; iv > 0 && iv/4 < poll {
		poll = iv / 4
		if poll < 10*time.Millisecond {
			poll = 10 * time.Millisecond
		}
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		st := d.wal.Stats()
		if st.Records == 0 {
			continue
		}
		due := d.opts.SnapshotWALRecords > 0 && st.Records >= d.opts.SnapshotWALRecords ||
			d.opts.SnapshotWALBytes > 0 && st.Bytes >= d.opts.SnapshotWALBytes ||
			d.opts.SnapshotInterval > 0 &&
				time.Since(time.Unix(0, d.lastSnapshot.Load())) >= d.opts.SnapshotInterval
		if !due {
			continue
		}
		if err := d.Snapshot(); err != nil {
			d.opts.Logf("qbh: background snapshot: %v", err)
		}
	}
}

// DurabilityStats reports snapshot age and WAL size.
func (d *Durable) DurabilityStats() DurabilityStats {
	st := d.wal.Stats()
	var age time.Duration
	if ns := d.lastSnapshot.Load(); ns > 0 {
		age = time.Since(time.Unix(0, ns))
	}
	return DurabilityStats{
		Dir:             d.dir,
		SnapshotAgeSec:  age.Seconds(),
		SnapshotBytes:   d.snapshotBytes.Load(),
		Snapshots:       d.snapshots.Load(),
		WALRecords:      st.Records,
		WALBytes:        st.Bytes,
		WALSyncs:        st.Syncs,
		LastFsyncMicros: st.LastSync.Microseconds(),
		ReapedSongs:     d.reaped.Load(),
	}
}

// Stats adds the "durability" section to the System's.
func (d *Durable) Stats(add func(section string, v any)) {
	d.sys.Stats(add)
	add("durability", d.DurabilityStats())
}

// Close stops the background snapshotter, writes a final snapshot if any
// WAL records are pending (graceful-shutdown compaction), closes the log,
// and releases the system (in paged mode: the buffer pool and spill
// files). The Durable must not be used afterwards.
func (d *Durable) Close() error {
	d.closeOnce.Do(func() {
		close(d.stop)
		<-d.done
		var err error
		if st := d.wal.Stats(); st.Records > 0 {
			err = d.Snapshot()
		}
		if cerr := d.wal.Close(); err == nil {
			err = cerr
		}
		if cerr := d.sys.Close(); err == nil {
			err = cerr
		}
		d.closeErr = err
	})
	return d.closeErr
}
