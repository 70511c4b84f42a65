package qbh

import (
	"context"
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
	// WALFileName is the write-ahead log of the songs added since the
	// snapshot, one song record (record.go) per WAL record.
	WALFileName = "wal.log"
)

// DurableOptions configures OpenDurable. The zero value of any field
// selects the default.
type DurableOptions struct {
	// GroupCommit is the fsync batching window for a write: 0 fsyncs every
	// write individually; a positive window lets concurrent writes share
	// one fsync (each write still waits for its fsync before returning).
	GroupCommit time.Duration
	// SnapshotInterval compacts the WAL into a fresh snapshot at least
	// this often while mutations are pending. <= 0 disables interval-based
	// snapshots (the size thresholds still apply).
	SnapshotInterval time.Duration
	// Build constructs the initial system when the data directory has no
	// snapshot (e.g. from a MIDI corpus or a generated demo database). When
	// Pager is set it must build with Options.Pager = *ResolvePager(dir), so
	// the corpus is built once and out-of-core; OpenDurable refuses (and
	// closes) an in-RAM system then.
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
	if o.FS == nil {
		o.FS = store.OS()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// The background snapshotter also compacts the WAL once it holds this
// many records or bytes.
const (
	snapshotWALRecords = 4096
	snapshotWALBytes   = 64 << 20
)

// snapshotDue reports whether the background snapshotter compacts a WAL
// with stats st, sinceLast after the last snapshot, under a
// SnapshotInterval of interval. An empty WAL is never due.
func snapshotDue(st store.WALStats, sinceLast, interval time.Duration) bool {
	return st.Records > 0 && (st.Records >= snapshotWALRecords || st.Bytes >= snapshotWALBytes ||
		interval > 0 && sinceLast >= interval)
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
}

// reader is the part of a System a durable backend passes through
// untouched: the System methods some caller reaches through a Durable or a
// replica.Node (server.Backend's queries and counts, the replication
// state's digest, qbhd's result-cache switch). Durable embeds it, and
// replica.Node embeds Durable, so neither has System.Index or
// System.AddSong in its method set — a mutation that bypasses the WAL is
// unreachable through a durable backend — and every call is the System's
// own method, not a forwarding copy of it. A method joins it when a caller
// needs it through a durable backend, not before.
type reader interface {
	QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]SongMatch, index.QueryStats, error)
	NumSongs() int
	NumPhrases() int
	Songs() []music.Song
	Digest() uint64
	EnableResultCache(maxBytes int64)
}

// Durable is a System backed by a data directory: every song added
// (AddSongTitled, ApplySong) is appended to a checksummed write-ahead log and fsynced before it is
// acknowledged, a background snapshotter compacts the log into an
// atomically-replaced snapshot, and OpenDurable recovers snapshot + WAL
// tail after a crash (truncating a torn final record rather than failing).
//
// The invariant, proven by fault-injection tests: every acknowledged
// write survives a crash; an unacknowledged one either survives whole or
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
	ingestMu sync.Mutex

	// replMu guards the replication frontier (see replication.go): epoch,
	// the promotion generation persisted in the data directory; durable,
	// the number of songs of the arrival order known durable; and
	// notifyCh, closed and replaced whenever either moves, which
	// replication long-polls wait on (DurableNotify). Lock order: ingestMu
	// before replMu.
	replMu   sync.Mutex
	epoch    int64
	durable  int64
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
		sys, err = loadWith(f, pcfg)
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
			_ = sys.Close()
			return nil, fmt.Errorf("qbh: the initial builder returned an in-RAM database while DurableOptions.Pager is set: build with Options.Pager = *DurableOptions.ResolvePager(%q)", dir)
		}
	} else {
		return nil, fmt.Errorf("qbh: no snapshot in %s and no initial builder", dir)
	}

	walPath := filepath.Join(dir, WALFileName)
	wal, rec, err := store.OpenWAL(fsys, walPath, opts.GroupCommit)
	if err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("qbh: opening wal %s: %w", walPath, err)
	}
	if rec.DroppedBytes > 0 {
		opts.Logf("qbh: wal recovery truncated %d bytes of torn tail", rec.DroppedBytes)
	}
	replayed := 0
	for i, payload := range rec.Records {
		song, err := decodeSongRecord(payload)
		if err == nil {
			if _, dup := sys.songs[song.ID]; dup {
				// Already covered by the snapshot: a crash landed between
				// the snapshot rename and the WAL reset. Replay is
				// idempotent by song id.
				continue
			}
			err = sys.AddSong(song)
		}
		if err != nil {
			wal.Close()
			_ = sys.Close()
			return nil, fmt.Errorf("qbh: replaying wal record %d: %w", i, err)
		}
		replayed++
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
		durable:  int64(sys.NumSongs()),
		notifyCh: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if fi, err := fsys.Stat(snapPath); err == nil {
		d.snapshotBytes.Store(fi.Size())
		d.lastSnapshot.Store(fi.ModTime().UnixNano())
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

// AddSongTitled allocates the next song id, indexes the melody and blocks
// until the write is durable: the WAL record is appended under ingestMu and
// fsynced (sharing the group-commit window with concurrent writers) before
// AddSongTitled returns. An error means the write was NOT acknowledged as
// durable — after a crash it may or may not be present. Queries are never
// blocked: ingestMu is not on any query path.
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
	return song, nil
}

// appendLocked writes the WAL record of the song just added while holding
// ingestMu and returns the commit func to wait on after releasing it, so
// the fsync wait blocks neither queries nor the next ingest's memory add.
// A commit that returns advances the durable frontier past the song.
func (d *Durable) appendLocked(song music.Song) func() error {
	end := int64(d.sys.NumSongs())
	commit := d.wal.Begin(appendSongRecord(nil, song))
	return func() error {
		if err := commit(); err != nil {
			return fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
		d.advanceDurable(end)
		return nil
	}
}

// Snapshot serializes the whole system into an atomically-replaced
// snapshot file and resets the WAL. It holds ingestMu, so it runs
// exclusively with mutations — but not with queries, which keep making
// progress throughout (System.snapshot is read-pure). Pending group commits are
// released with success because the snapshot covers their records, and
// the durable frontier moves to every song it holds.
func (d *Durable) Snapshot() error {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	snap := d.sys.snapshot()
	if err := store.WriteFileAtomic(d.fsys, d.snapPath, snap); err != nil {
		return fmt.Errorf("qbh: writing snapshot: %w", err)
	}
	d.snapshotBytes.Store(int64(len(snap)))
	d.lastSnapshot.Store(time.Now().UnixNano())
	d.snapshots.Add(1)
	d.advanceDurable(int64(d.sys.NumSongs()))
	if err := d.wal.Reset(); err != nil {
		return fmt.Errorf("qbh: resetting wal: %w", err)
	}
	return nil
}

// snapshotLoop compacts the WAL in the background whenever snapshotDue
// says so.
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
		sinceLast := time.Since(time.Unix(0, d.lastSnapshot.Load()))
		if !snapshotDue(d.wal.Stats(), sinceLast, d.opts.SnapshotInterval) {
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
