package qbh

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"warping/internal/hum"
	"warping/internal/music"
	"warping/internal/store"
	"warping/internal/ts"
)

// Small system parameters keep the exhaustive fault sweeps fast.
var durableOpts = Options{NormalLen: 32, Dim: 4, PhraseMin: 8, PhraseMax: 12}

func smallSongs(seed int64, count int, idOffset int64) []music.Song {
	songs := music.GenerateSongs(seed, count, 20, 30)
	for i := range songs {
		songs[i].ID += idOffset
	}
	return songs
}

func durableTestOptions(fsys store.FS, base []music.Song) DurableOptions {
	return DurableOptions{
		FS:    fsys,
		Logf:  func(string, ...interface{}) {},
		Build: func() (*System, error) { return Build(base, durableOpts) },
	}
}

// abandon simulates a crash: the background goroutine stops and the WAL
// file handle is released, but nothing is flushed, compacted or snapshotted.
func (d *Durable) abandon() {
	close(d.stop)
	<-d.done
	_ = d.wal.Close()
}

func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{SnapshotFileName, WALFileName} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func sameMatches(a, b []SongMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SongID != b[i].SongID || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func TestDurableOpenInitializesAndReloads(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(80, 3, 0)
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFileName)); err != nil {
		t.Fatalf("no snapshot after first open: %v", err)
	}
	added, err := d.AddSongTitled("Added Song", smallSongs(81, 1, 500)[0].Melody)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without a builder: the directory must be self-contained.
	d2, err := OpenDurable(dir, DurableOptions{
		FS:   store.OS(),
		Logf: func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumSongs() != len(base)+1 {
		t.Fatalf("NumSongs = %d, want %d", d2.NumSongs(), len(base)+1)
	}
	found := false
	for _, s := range d2.Songs() {
		if s.ID == added.ID && s.Title == "Added Song" {
			found = true
		}
	}
	if !found {
		t.Fatal("added song missing after reopen")
	}
}

// Acked writes must survive a crash with no Close and no snapshot: the WAL
// alone carries them.
func TestDurableAckedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(82, 2, 0)
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	adds := smallSongs(83, 3, 100)
	for _, s := range adds {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	snapshotsBefore := d.snapshots.Load()
	d.abandon() // crash: no graceful shutdown, no compaction

	d2, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if snapshotsBefore != 1 {
		t.Fatalf("unexpected extra snapshots before crash: %d", snapshotsBefore)
	}
	if d2.NumSongs() != len(base)+len(adds) {
		t.Fatalf("NumSongs = %d, want %d", d2.NumSongs(), len(base)+len(adds))
	}
}

// The acceptance invariant, exhaustively: kill the filesystem at every
// byte offset of the WAL write stream. After reopening on a healthy
// filesystem, every acknowledged write must be present, the recovered
// set must be a clean prefix of the attempted writes, recovery must never
// fail, and query results must match a never-crashed reference system
// built from the same songs.
func TestDurableKillAtEveryWALOffset(t *testing.T) {
	base := smallSongs(84, 3, 0)
	adds := smallSongs(85, 4, 1000)

	// Prepare a data dir holding just the base snapshot.
	prep := t.TempDir()
	d, err := OpenDurable(prep, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Reference run on a healthy filesystem, counting WAL write bytes.
	refDir := copyDataDir(t, prep)
	ffs := store.NewFaultFS(store.OS())
	dref, err := OpenDurable(refDir, durableTestOptions(ffs, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range adds {
		if _, err := dref.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	totalBytes := ffs.BytesWritten()
	dref.abandon()
	if totalBytes == 0 {
		t.Fatal("reference run wrote no WAL bytes")
	}

	// Never-crashed references for every possible recovered prefix.
	refs := make([]*System, len(adds)+1)
	for m := range refs {
		songs := append(append([]music.Song{}, base...), adds[:m]...)
		refs[m], err = Build(songs, durableOpts)
		if err != nil {
			t.Fatal(err)
		}
	}
	query := adds[0].Melody.TimeSeries()

	for offset := int64(0); offset <= totalBytes; offset++ {
		dir := copyDataDir(t, prep)
		ffs := store.NewFaultFS(store.OS())
		ffs.KillAfterBytes(offset)
		acked := 0
		dk, err := OpenDurable(dir, durableTestOptions(ffs, nil))
		if err != nil {
			t.Fatalf("offset %d: open with zero write budget failed: %v", offset, err)
		}
		for _, s := range adds {
			if _, err := dk.ApplySong(s); err != nil {
				break
			}
			acked++
		}
		dk.abandon()

		// Restart on a healthy filesystem.
		d2, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", offset, err)
		}
		got := d2.NumSongs() - len(base)
		if got < acked {
			t.Fatalf("offset %d: %d writes acked but only %d recovered", offset, acked, got)
		}
		if got > len(adds) {
			t.Fatalf("offset %d: recovered %d adds, more than attempted", offset, got)
		}
		// The recovered set must be a clean prefix with intact content.
		songs := d2.Songs()
		for i := 0; i < got; i++ {
			want, g := adds[i], songs[len(base)+i]
			if g.ID != want.ID || g.Title != want.Title || g.Melody.NumNotes() != want.Melody.NumNotes() {
				t.Fatalf("offset %d: recovered song %d corrupted: %+v", offset, i, g)
			}
		}
		// Sampled: results must match the never-crashed reference exactly.
		if offset%17 == 0 || offset == totalBytes {
			a, _ := d2.sys.Query(query, 10, 0.1)
			b, _ := refs[got].Query(query, 10, 0.1)
			if !sameMatches(a, b) {
				t.Fatalf("offset %d: query diverged from never-crashed reference\n%v\n%v", offset, a, b)
			}
		}
		d2.abandon()
	}
}

// Kill the filesystem at offsets throughout snapshot compaction: recovery
// must always see either the old snapshot plus its WAL or the new
// snapshot, never a broken mix.
func TestDurableKillDuringSnapshotCompaction(t *testing.T) {
	base := smallSongs(86, 2, 0)
	adds := smallSongs(87, 3, 2000)

	// A data dir with an old snapshot and a WAL tail of 3 adds.
	prep := t.TempDir()
	d, err := OpenDurable(prep, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range adds {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	d.abandon()

	// Measure the write bytes of a clean reopen (replay + compaction).
	mdir := copyDataDir(t, prep)
	mfs := store.NewFaultFS(store.OS())
	dm, err := OpenDurable(mdir, durableTestOptions(mfs, nil))
	if err != nil {
		t.Fatal(err)
	}
	totalBytes := mfs.BytesWritten()
	dm.abandon()
	if totalBytes == 0 {
		t.Fatal("clean reopen wrote nothing; compaction did not run")
	}

	for offset := int64(0); offset <= totalBytes; offset += 3 {
		dir := copyDataDir(t, prep)
		ffs := store.NewFaultFS(store.OS())
		ffs.KillAfterBytes(offset)
		if dk, err := OpenDurable(dir, durableTestOptions(ffs, nil)); err == nil {
			dk.abandon() // compaction fit within the budget
		}
		d2, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", offset, err)
		}
		if d2.NumSongs() != len(base)+len(adds) {
			t.Fatalf("offset %d: %d songs, want %d", offset, d2.NumSongs(), len(base)+len(adds))
		}
		d2.abandon()
	}
}

// A corrupted snapshot must be rejected with a typed error at open, not
// silently rebuilt and not panic.
func TestDurableCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), smallSongs(88, 2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	path := filepath.Join(dir, SnapshotFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("corrupt snapshot: got %v, want ErrChecksum", err)
	}
}

// An fsync failure must fail the ApplySong (the write is not acknowledged),
// poison the WAL, and heal after a successful snapshot.
func TestDurableFsyncFailureNotAcked(t *testing.T) {
	ffs := store.NewFaultFS(store.OS())
	d, err := OpenDurable(t.TempDir(), durableTestOptions(ffs, smallSongs(89, 2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ffs.FailSyncs(errors.New("disk detached"))
	if _, err := d.ApplySong(smallSongs(90, 1, 100)[0]); err == nil {
		t.Fatal("ApplySong acked despite fsync failure")
	}
	ffs.FailSyncs(nil)
	if _, err := d.ApplySong(smallSongs(91, 1, 200)[0]); err == nil {
		t.Fatal("poisoned WAL accepted a write")
	}
	// A snapshot persists the in-memory state and heals the log.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplySong(smallSongs(92, 1, 300)[0]); err != nil {
		t.Fatalf("WAL not healed after snapshot: %v", err)
	}
}

// snapshotDue compacts a non-empty WAL at either size threshold or once
// the interval has passed since the last snapshot, and never an empty one.
func TestSnapshotDue(t *testing.T) {
	const iv = time.Minute
	for _, tc := range []struct {
		name      string
		st        store.WALStats
		sinceLast time.Duration
		interval  time.Duration
		want      bool
	}{
		{"empty", store.WALStats{}, time.Hour, iv, false},
		{"empty at thresholds", store.WALStats{Records: 0, Bytes: snapshotWALBytes}, time.Hour, iv, false},
		{"below everything", store.WALStats{Records: 1, Bytes: 100}, time.Second, iv, false},
		{"record threshold", store.WALStats{Records: snapshotWALRecords, Bytes: 100}, 0, 0, true},
		{"below record threshold", store.WALStats{Records: snapshotWALRecords - 1, Bytes: 100}, 0, 0, false},
		{"byte threshold", store.WALStats{Records: 1, Bytes: snapshotWALBytes}, 0, 0, true},
		{"below byte threshold", store.WALStats{Records: 1, Bytes: snapshotWALBytes - 1}, 0, 0, false},
		{"interval passed", store.WALStats{Records: 1, Bytes: 100}, iv, iv, true},
		{"interval not passed", store.WALStats{Records: 1, Bytes: 100}, iv - 1, iv, false},
		{"no interval", store.WALStats{Records: 1, Bytes: 100}, 1000 * time.Hour, 0, false},
	} {
		if got := snapshotDue(tc.st, tc.sinceLast, tc.interval); got != tc.want {
			t.Errorf("%s: snapshotDue(%+v, %v, %v) = %v, want %v", tc.name, tc.st, tc.sinceLast, tc.interval, got, tc.want)
		}
	}
}

// The background snapshotter compacts pending WAL records once
// SnapshotInterval has passed.
func TestDurableBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := durableTestOptions(store.OS(), smallSongs(93, 2, 0))
	opts.SnapshotInterval = 50 * time.Millisecond
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, s := range smallSongs(94, 3, 100) {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.DurabilityStats()
		if st.WALRecords == 0 && st.Snapshots >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Group-committed concurrent writers: all acked writes survive, and
// queries run concurrently with them without races.
func TestDurableConcurrentAddAndQuery(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(95, 3, 0)
	opts := durableTestOptions(store.OS(), base)
	opts.GroupCommit = time.Millisecond
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 5
	query := base[0].Melody.TimeSeries()
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 96))
			for i := 0; i < perWriter; i++ {
				m := music.GenerateMelody(r, 25)
				if _, err := d.AddSongTitled(fmt.Sprintf("w%d-%d", g, i), m); err != nil {
					errs <- err
				}
				d.sys.Query(query, 5, 0.1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := d.DurabilityStats()
	if st.WALRecords != writers*perWriter {
		t.Fatalf("WALRecords = %d, want %d", st.WALRecords, writers*perWriter)
	}
	d.abandon() // crash, then recover purely from snapshot + WAL

	d2, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumSongs() != len(base)+writers*perWriter {
		t.Fatalf("NumSongs = %d, want %d", d2.NumSongs(), len(base)+writers*perWriter)
	}
}

func TestDurableStatsSurface(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), durableTestOptions(store.OS(), smallSongs(97, 2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ApplySong(smallSongs(98, 1, 100)[0]); err != nil {
		t.Fatal(err)
	}
	st := d.DurabilityStats()
	if st.WALRecords != 1 || st.WALSyncs == 0 || st.SnapshotBytes == 0 || st.Snapshots == 0 {
		t.Errorf("stats: %+v", st)
	}
	if last := d.wal.Stats().LastSync; last <= 0 || st.LastFsyncMicros != last.Microseconds() {
		t.Errorf("LastFsyncMicros = %v, wal's last fsync took %v", st.LastFsyncMicros, last)
	}
}

// TestRecoveryIsOneBuild: a directory holding a snapshot and a WAL tail —
// the tail ending in a song the snapshot already holds, as a crash between
// the snapshot's rename and the WAL's reset leaves it — reopens as the
// system Build makes from the same songs: the same arrival order and
// digest, the same slot order (Build packs every phrase into the base, so no
// tail phrase waits in the index's delta), no delta merge, and the same
// answers and work for every hum.
func TestRecoveryIsOneBuild(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(330, 60, 0)
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	all := slices.Clone(base)
	for i, song := range smallSongs(331, 40, 0) {
		added, err := d.AddSongTitled(fmt.Sprintf("tail %d", i), song.Melody)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, added)
	}
	d.abandon()
	wal, _, err := store.OpenWAL(store.OS(), filepath.Join(dir, WALFileName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(appendSongRecord(nil, base[7])); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	d, err = OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	built, err := Build(all, durableOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.SongsFrom(ReplicationState{Epoch: d.ReplState().Epoch}, len(all)); !reflect.DeepEqual(got, all) {
		t.Fatalf("arrival order after recovery differs from Build's")
	}
	if d.Digest() != built.Digest() {
		t.Fatalf("digest %x, Build's %x", d.Digest(), built.Digest())
	}
	slots := func(s *System) (ids []int64) {
		s.Index().Visit(func(id int64, _ ts.Series) { ids = append(ids, id) })
		return ids
	}
	if !slices.Equal(slots(d.sys), slots(built)) {
		t.Fatal("slot order after recovery differs from Build's: tail phrases sit in the delta")
	}
	if got, want := d.sys.Index().MergeStats(), built.Index().MergeStats(); got != want {
		t.Fatalf("merge stats %+v, Build's %+v", got, want)
	}
	r := rand.New(rand.NewSource(332))
	for i := range 20 {
		ph, _ := built.PhraseByID(int64(i * built.NumPhrases() / 20))
		q := hum.StripSilence(hum.GoodSinger().RenderPitch(ph.Melody, r))
		got, gotStats := d.sys.Query(q, 5, 0.1)
		want, wantStats := built.Query(q, 5, 0.1)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("hum %d: %v %+v, Build's %v %+v", i, got, gotStats, want, wantStats)
		}
	}
}

// TestOrphanLogRefused: WAL records with no snapshot beside them are
// refused before the initial builder runs, with an error naming both files,
// and neither file is created or changed.
func TestOrphanLogRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), smallSongs(340, 5, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, song := range smallSongs(341, 2, 0) {
		if _, err := d.AddSongTitled(song.Title, song.Melody); err != nil {
			t.Fatal(err)
		}
	}
	d.abandon()
	snapPath, walPath := filepath.Join(dir, SnapshotFileName), filepath.Join(dir, WALFileName)
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	opts := durableTestOptions(store.OS(), nil)
	opts.Build = func() (*System, error) {
		t.Error("the initial builder ran beside an orphan log")
		return Build(nil, durableOpts)
	}
	if d, err = OpenDurable(dir, opts); err == nil {
		d.Close()
		t.Fatal("a WAL with no snapshot opened")
	}
	for _, path := range []string{snapPath, walPath} {
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name %s", err, path)
		}
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, walBytes) {
		t.Errorf("the WAL changed after a refused open (%v)", err)
	}
	if _, err := os.Stat(snapPath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a snapshot after a refused open: %v", err)
	}
}
