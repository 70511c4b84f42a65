package qbh

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/store"
)

// pagedTestOptions is durableTestOptions with out-of-core storage behind a
// pathologically small pool: 512-byte pages (widened to fit one 32-sample
// float64 normal form; they hold 12 phrases' byte records, or 6 tree
// entries) and 8 frames, so a corpus of a few dozen songs is far larger than
// the pool and every query path crosses evictions and re-reads. Its
// builder builds in the page space OpenDurable(dir, ...) resolves from
// *Pager as it stands when the builder runs.
func pagedTestOptions(fsys store.FS, dir string, base []music.Song) DurableOptions {
	o := durableTestOptions(fsys, base)
	o.Pager = &pager.Config{PageSize: 256, PoolPages: 8}
	o.Build = func() (*System, error) {
		bo := durableOpts
		bo.Pager = *o.ResolvePager(dir)
		return Build(base, bo)
	}
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
	// 40 songs: some 100 phrases, whose column and leaves span a few dozen
	// pages behind the 8 frames.
	base := smallSongs(300, 40, 0)
	d, err := OpenDurable(dir, pagedTestOptions(store.OS(), dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if d.sys.space == nil {
		t.Fatal("durable system did not come up paged")
	}
	adds := smallSongs(301, 5, 1000)
	for _, s := range adds {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	query := base[0].Melody.TimeSeries()
	if _, stats := d.sys.Query(query, 10, 0.1); stats.PageAccesses == 0 {
		t.Fatalf("paged query reported zero page accesses: %+v", stats)
	}
	if st, ok := d.sys.PoolStats(); !ok || st.Misses == 0 {
		t.Fatalf("tiny pool served everything from memory: ok=%v %+v", ok, st)
	}
	d.abandon() // crash: nothing flushed, spill files left as garbage

	// Recover out-of-core and compare against a never-crashed RAM twin.
	all := append(append([]music.Song{}, base...), adds...)
	ram, err := Build(all, durableOpts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, pagedTestOptions(store.OS(), dir, nil))
	if err != nil {
		t.Fatalf("paged recovery failed: %v", err)
	}
	if d2.NumSongs() != len(all) {
		t.Fatalf("recovered %d songs, want %d", d2.NumSongs(), len(all))
	}
	for _, s := range all {
		q := s.Melody.TimeSeries()
		got, gstats := d2.sys.Query(q, 10, 0.1)
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
	if st, ok := d2.sys.PoolStats(); !ok || st.Misses == 0 || st.Evictions == 0 {
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
	got, _ := d3.sys.Query(query, 10, 0.1)
	want, _ := ram.Query(query, 10, 0.1)
	if !sameMatches(got, want) {
		t.Fatalf("RAM-mode reopen diverged:\n%v\n%v", got, want)
	}
}

// A builder that builds in the page space ResolvePager names is served as
// it is, so a first paged start builds the corpus once.
func TestDurablePagedBuilderIsNotRebuilt(t *testing.T) {
	dir := t.TempDir()
	opts := pagedTestOptions(store.OS(), dir, smallSongs(300, 10, 0))
	build := opts.Build
	var built *System
	opts.Build = func() (sys *System, err error) {
		built, err = build()
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
	if _, ok := d.sys.PoolStats(); !ok {
		t.Fatal("durable system did not come up paged")
	}
}

// A builder that returns an in-RAM system while Pager is set is refused
// before anything is written: the error names ResolvePager, and the data
// directory holds no snapshot and no log.
func TestDurablePagedRefusesRAMBuilder(t *testing.T) {
	dir := t.TempDir()
	opts := durableTestOptions(store.OS(), smallSongs(300, 10, 0))
	opts.Pager = &pager.Config{PageSize: 256, PoolPages: 8}
	build := opts.Build
	var built *System
	opts.Build = func() (sys *System, err error) {
		built, err = build()
		return built, err
	}
	d, err := OpenDurable(dir, opts)
	if err == nil {
		d.Close()
		t.Fatal("OpenDurable accepted an in-RAM system under DurableOptions.Pager")
	}
	if built == nil || !strings.Contains(err.Error(), "ResolvePager") {
		t.Fatalf("error %q does not name ResolvePager, or the builder never ran", err)
	}
	for _, name := range []string{SnapshotFileName, WALFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s after a refused build: %v", name, err)
		}
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
	dref, err := OpenDurable(refDir, pagedTestOptions(ffs, refDir, nil))
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
		dk, err := OpenDurable(dir, pagedTestOptions(ffs, dir, nil))
		if err == nil {
			for _, s := range adds {
				if _, err := dk.ApplySong(s); err != nil {
					break
				}
				acked++
			}
			dk.abandon()
		}
		// A budget too small even for recovery is fine: nothing was acked.

		d2, err := OpenDurable(dir, pagedTestOptions(store.OS(), dir, nil))
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
			a, _ := d2.sys.Query(query, 10, 0.1)
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
