package qbh

import (
	"testing"

	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/store"
)

// pagedTestOptions is durableTestOptions with out-of-core storage behind a
// pathologically small pool: 512-byte pages (one 32-sample normal form per
// page) and 8 frames, so any real corpus is far larger than the pool and
// every query path crosses evictions and re-reads.
func pagedTestOptions(fsys store.FS, base []music.Song) DurableOptions {
	o := durableTestOptions(fsys, base)
	o.Pager = &pager.Config{PageSize: 256, PoolPages: 8}
	return o
}

// TestDurablePagedRecovery is the tentpole acceptance test at the system
// level: a corpus much larger than the buffer pool builds, snapshots,
// survives a crash (no Close, no flush — page files are derived state and
// are wiped at recovery), and after recovery answers queries bit-identically
// to an all-in-RAM system holding the same songs, with real pool misses
// observed throughout.
func TestDurablePagedRecovery(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(300, 10, 0)
	d, err := OpenDurable(dir, pagedTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	if d.sys.space == nil {
		t.Fatal("durable system did not come up paged")
	}
	adds := smallSongs(301, 5, 1000)
	for _, s := range adds {
		if err := d.AddSong(s); err != nil {
			t.Fatal(err)
		}
	}
	query := base[0].Melody.TimeSeries()
	if _, stats := d.Query(query, 10, 0.1); stats.PageAccesses == 0 {
		t.Fatalf("paged query reported zero page accesses: %+v", stats)
	}
	if st, ok := d.PoolStats(); !ok || st.Misses == 0 {
		t.Fatalf("tiny pool served everything from memory: ok=%v %+v", ok, st)
	}
	d.abandon() // crash: nothing flushed, spill files left as garbage

	// Recover out-of-core and compare against a never-crashed RAM twin.
	all := append(append([]music.Song{}, base...), adds...)
	ram, err := Build(all, durableOpts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, pagedTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatalf("paged recovery failed: %v", err)
	}
	if d2.NumSongs() != len(all) {
		t.Fatalf("recovered %d songs, want %d", d2.NumSongs(), len(all))
	}
	for _, s := range all {
		q := s.Melody.TimeSeries()
		got, gstats := d2.Query(q, 10, 0.1)
		want, wstats := ram.Query(q, 10, 0.1)
		if !sameMatches(got, want) {
			t.Fatalf("song %d: paged ranking diverged from RAM twin\n%v\n%v", s.ID, got, want)
		}
		// LogicalPages is structure-dependent (the paged base's node fanout
		// need not match the RAM tree's), so only results are required to
		// agree; both modes must still report a nonzero simulated count.
		if gstats.LogicalPages == 0 || wstats.LogicalPages == 0 {
			t.Fatalf("song %d: logical pages %d (paged), %d (ram); want both nonzero", s.ID, gstats.LogicalPages, wstats.LogicalPages)
		}
	}
	if st, ok := d2.PoolStats(); !ok || st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("recovered pool never thrashed: ok=%v %+v", ok, st)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("closing paged durable: %v", err)
	}

	// Mode changes across restarts are safe in both directions: the same
	// directory reopens all-in-RAM with identical answers.
	d3, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatalf("reopening in RAM mode: %v", err)
	}
	defer d3.Close()
	got, _ := d3.Query(query, 10, 0.1)
	want, _ := ram.Query(query, 10, 0.1)
	if !sameMatches(got, want) {
		t.Fatalf("RAM-mode reopen diverged:\n%v\n%v", got, want)
	}
}

// A builder that builds in the page space ResolvePager names is served as
// it is: OpenDurable rebuilds only a RAM system (TestDurablePagedRecovery's
// builder), so a first paged start builds the corpus once.
func TestDurablePagedBuilderIsNotRebuilt(t *testing.T) {
	dir := t.TempDir()
	opts := pagedTestOptions(store.OS(), nil)
	var built *System
	opts.Build = func() (sys *System, err error) {
		o := durableOpts
		o.Pager = *opts.ResolvePager(dir)
		built, err = Build(smallSongs(300, 10, 0), o)
		return built, err
	}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.sys != built {
		t.Fatal("OpenDurable rebuilt a system its builder had already built out-of-core")
	}
	if _, ok := d.PoolStats(); !ok {
		t.Fatal("durable system did not come up paged")
	}
}

// TestDurablePagedKillSweep drives the WAL kill sweep with paged storage
// enabled: the fault filesystem budget now covers WAL appends AND page-file
// writes (the paged build that recovery runs, one write per page), so a kill
// can land mid-page as easily as mid-record. The invariant is unchanged — every acked write is
// recovered, recovery (which wipes and rebuilds all spill state) never
// fails, and results match a never-crashed reference.
func TestDurablePagedKillSweep(t *testing.T) {
	base := smallSongs(310, 3, 0)
	adds := smallSongs(311, 3, 1000)

	prep := t.TempDir()
	d, err := OpenDurable(prep, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Reference run measures the paged write stream (WAL + spill).
	refDir := copyDataDir(t, prep)
	ffs := store.NewFaultFS(store.OS())
	dref, err := OpenDurable(refDir, pagedTestOptions(ffs, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range adds {
		if err := dref.AddSong(s); err != nil {
			t.Fatal(err)
		}
	}
	totalBytes := ffs.BytesWritten()
	dref.abandon()
	if totalBytes == 0 {
		t.Fatal("reference run wrote nothing")
	}

	refs := make([]*System, len(adds)+1)
	for m := range refs {
		songs := append(append([]music.Song{}, base...), adds[:m]...)
		refs[m], err = Build(songs, durableOpts)
		if err != nil {
			t.Fatal(err)
		}
	}
	query := adds[0].Melody.TimeSeries()

	// Step 7 keeps the sweep dense enough to land inside page headers,
	// payloads and checksums alike without multiplying runtime; the endpoint
	// offset is always included.
	for offset := int64(0); offset <= totalBytes; offset += 7 {
		if offset > totalBytes-7 {
			offset = totalBytes
		}
		dir := copyDataDir(t, prep)
		ffs := store.NewFaultFS(store.OS())
		ffs.KillAfterBytes(offset)
		acked := 0
		dk, err := OpenDurable(dir, pagedTestOptions(ffs, nil))
		if err == nil {
			for _, s := range adds {
				if err := dk.AddSong(s); err != nil {
					break
				}
				acked++
			}
			dk.abandon()
		}
		// A budget too small even for recovery is fine: nothing was acked.

		d2, err := OpenDurable(dir, pagedTestOptions(store.OS(), nil))
		if err != nil {
			t.Fatalf("offset %d: paged recovery failed: %v", offset, err)
		}
		got := d2.NumSongs() - len(base)
		if got < acked {
			t.Fatalf("offset %d: %d writes acked but only %d recovered", offset, acked, got)
		}
		if got > len(adds) {
			t.Fatalf("offset %d: recovered %d adds, more than attempted", offset, got)
		}
		if offset%21 == 0 || offset == totalBytes {
			a, _ := d2.Query(query, 10, 0.1)
			b, _ := refs[got].Query(query, 10, 0.1)
			if !sameMatches(a, b) {
				t.Fatalf("offset %d: query diverged from never-crashed reference\n%v\n%v", offset, a, b)
			}
		}
		if err := d2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", offset, err)
		}
	}
}

// TestCompactionReapsMigratedSongs drives the snapshot-compaction reaper:
// a keep-filter (the committed-ring ownership check in production) removes
// rejected songs exactly at compaction, the snapshot that follows persists
// the removal with no WAL traffic, queries stop returning reaped songs, and
// clearing the filter stops reaping.
func TestCompactionReapsMigratedSongs(t *testing.T) {
	dir := t.TempDir()
	base := smallSongs(320, 6, 0)
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	keepIDs := map[int64]bool{base[0].ID: true, base[2].ID: true, base[4].ID: true}
	d.SetCompactKeep(func(s music.Song) bool { return keepIDs[s.ID] })

	// Nothing is reaped outside compaction.
	if d.NumSongs() != len(base) {
		t.Fatalf("reap ran before compaction: %d songs", d.NumSongs())
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if d.NumSongs() != len(keepIDs) {
		t.Fatalf("after reap: %d songs, want %d", d.NumSongs(), len(keepIDs))
	}
	if got := d.ReapedSongs(); got != int64(len(base)-len(keepIDs)) {
		t.Fatalf("ReapedSongs = %d, want %d", got, len(base)-len(keepIDs))
	}
	if st := d.DurabilityStats(); st.ReapedSongs != d.ReapedSongs() {
		t.Fatalf("stats ReapedSongs = %d, want %d", st.ReapedSongs, d.ReapedSongs())
	}
	// A reaped song's own melody must not rank it anymore: its phrases are
	// gone from the index, not just the song list.
	gone := base[1]
	matches, _ := d.Query(gone.Melody.TimeSeries(), len(base), 0.1)
	for _, m := range matches {
		if m.SongID == gone.ID {
			t.Fatalf("reaped song %d still ranked: %+v", gone.ID, m)
		}
	}
	// Idempotent: another compaction reaps nothing further.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.ReapedSongs(); got != int64(len(base)-len(keepIDs)) {
		t.Fatalf("second compaction reaped more: %d", got)
	}
	d.abandon() // crash after the reaping snapshot

	// The snapshot is the durability root: recovery sees the reaped state.
	d2, err := OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumSongs() != len(keepIDs) {
		t.Fatalf("recovered %d songs, want %d", d2.NumSongs(), len(keepIDs))
	}
	for id := range keepIDs {
		if !d2.HasSong(id) {
			t.Fatalf("kept song %d missing after recovery", id)
		}
	}
	// Clearing the filter stops reaping.
	d2.SetCompactKeep(nil)
	if err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if d2.NumSongs() != len(keepIDs) {
		t.Fatalf("cleared filter still reaped: %d songs", d2.NumSongs())
	}
}

// TestRemoveSongTombstonesPhrases pins the phrase-id stability contract:
// removing a song keeps every other phrase id valid and never reuses the
// dead ids for later adds.
func TestRemoveSongTombstonesPhrases(t *testing.T) {
	base := smallSongs(330, 3, 0)
	s, err := Build(base, durableOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.NumPhrases()
	if !s.RemoveSong(base[1].ID) {
		t.Fatal("RemoveSong returned false for a present song")
	}
	if s.RemoveSong(base[1].ID) {
		t.Fatal("RemoveSong returned true for an absent song")
	}
	if got := s.NumPhrases(); got != before {
		t.Fatalf("phrase table shrank from %d to %d; ids must stay stable", before, got)
	}
	// New phrases must get fresh ids past the tombstones.
	added, err := s.AddSongTitled("fresh", smallSongs(331, 1, 0)[0].Melody)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPhrases() <= before {
		t.Fatal("new song added no phrases")
	}
	matches, _ := s.Query(added.Melody.TimeSeries(), 5, 0.1)
	found := false
	for _, m := range matches {
		if m.SongID == base[1].ID {
			t.Fatalf("removed song still ranked: %+v", m)
		}
		found = found || m.SongID == added.ID
	}
	if !found {
		t.Fatalf("fresh song not retrievable after tombstoned removal: %v", matches)
	}
}
