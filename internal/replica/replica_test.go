package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/retry"
	"warping/internal/store"
)

var testOpts = qbh.Options{NormalLen: 32, Dim: 4, PhraseMin: 8, PhraseMax: 12}

func testSongs(seed int64, count int, idOffset int64) []music.Song {
	songs := music.GenerateSongs(seed, count, 20, 30)
	for i := range songs {
		songs[i].ID += idOffset
	}
	return songs
}

func openDurable(t *testing.T, dir string, base []music.Song) *qbh.Durable {
	t.Helper()
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:                 store.OS(),
		Logf:               func(string, ...interface{}) {},
		SnapshotWALRecords: -1,
		SnapshotWALBytes:   -1,
		Build:              func() (*qbh.System, error) { return qbh.Build(base, testOpts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fastBackoff keeps test-time retries tight.
var fastBackoff = retry.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

// startPrimary opens a primary node over a fresh durable store and serves
// its replication endpoints over httptest.
func startPrimary(t *testing.T, base []music.Song, cfg NodeConfig) (*Node, *httptest.Server) {
	t.Helper()
	d := openDurable(t, t.TempDir(), base)
	cfg.Role = RolePrimary
	n, err := NewNode(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	mux := http.NewServeMux()
	n.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return n, srv
}

// startFollower opens a follower in dir pulling from primaryURL.
func startFollower(t *testing.T, dir string, base []music.Song, primaryURL string) *Node {
	t.Helper()
	d := openDurable(t, dir, base)
	n, err := NewNode(d, NodeConfig{
		Role:       RoleFollower,
		PrimaryURL: primaryURL,
		FollowerID: dir,
		PollWait:   200 * time.Millisecond,
		Backoff:    fastBackoff,
		Logf:       func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func waitConverged(t *testing.T, primary, follower *Node, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if follower.Digest() == primary.Digest() && follower.NumSongs() == primary.NumSongs() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never converged: %d/%d songs, digest match %v",
		follower.NumSongs(), primary.NumSongs(), follower.Digest() == primary.Digest())
}

func TestFollowerConvergesViaWALShipping(t *testing.T) {
	base := testSongs(1, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	follower := startFollower(t, t.TempDir(), base, srv.URL)

	for _, s := range testSongs(2, 5, 100) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	waitConverged(t, primary, follower, 5*time.Second)

	// The follower's position reaches the primary's frontier — after the
	// digests agree, not with them: the position is the durable watermark,
	// saved once the batch's records are fsynced, and the memory add that
	// moves the digest comes first (see pullOnce).
	for !follower.Position().AtLeast(primary.ReplState()) {
		if time.Now().After(deadline) {
			t.Fatalf("follower position %v behind primary frontier %v", follower.Position(), primary.ReplState())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the primary recorded its ack watermark.
	if primary.Followers() == 0 {
		t.Fatal("primary recorded no follower ack watermark")
	}
}

func TestFreshFollowerSyncsFromSnapshot(t *testing.T) {
	base := testSongs(3, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	// The follower starts with a different, smaller corpus and a zero
	// position: its first pull answers SnapshotNeeded.
	follower := startFollower(t, t.TempDir(), testSongs(3, 1, 0), srv.URL)
	waitConverged(t, primary, follower, 5*time.Second)
}

func TestFollowerResumesAcrossRestart(t *testing.T) {
	base := testSongs(4, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	dir := t.TempDir()
	follower := startFollower(t, dir, base, srv.URL)

	for _, s := range testSongs(5, 3, 200) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, primary, follower, 5*time.Second)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// More writes while the follower is down.
	for _, s := range testSongs(6, 3, 300) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	// Restart from the same directory: resume from the persisted
	// position, no snapshot round trip needed.
	follower2 := startFollower(t, dir, nil, srv.URL)
	waitConverged(t, primary, follower2, 5*time.Second)
}

func TestFollowerCatchesUpPastCompaction(t *testing.T) {
	base := testSongs(7, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	dir := t.TempDir()
	follower := startFollower(t, dir, base, srv.URL)
	waitConverged(t, primary, follower, 5*time.Second)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down: writes, then a snapshot compaction that
	// resets the WAL. The follower's saved position is from a dead epoch.
	for _, s := range testSongs(8, 3, 400) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	follower2 := startFollower(t, dir, nil, srv.URL)
	waitConverged(t, primary, follower2, 5*time.Second)
}

func TestWritesRejectedOnFollower(t *testing.T) {
	base := testSongs(9, 3, 0)
	_, srv := startPrimary(t, base, NodeConfig{})
	follower := startFollower(t, t.TempDir(), base, srv.URL)

	if _, err := follower.AddSongTitled("nope", testSongs(10, 1, 500)[0].Melody); err == nil {
		t.Fatal("follower accepted a write")
	} else if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower write error = %v, want ErrNotPrimary", err)
	}
}

func TestPromoteFollowerAcceptsWrites(t *testing.T) {
	base := testSongs(11, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	follower := startFollower(t, t.TempDir(), base, srv.URL)

	for _, s := range testSongs(12, 2, 600) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, primary, follower, 5*time.Second)

	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if follower.Role() != RolePrimary {
		t.Fatal("role not primary after promote")
	}
	// The promoted node holds everything the old primary acked and now
	// accepts writes of its own.
	if follower.Digest() != primary.Digest() {
		t.Fatal("promoted follower lost state")
	}
	if _, err := follower.AddSongTitled("post-promotion", testSongs(13, 1, 700)[0].Melody); err != nil {
		t.Fatalf("promoted node rejected write: %v", err)
	}
}

// TestExportImport ships songs to a primary the way the coordinator writes:
// an EncodeExport container POSTed to PathImport lands every song under its
// own id, a second POST of the same container applies nothing, and a
// follower refuses the import with 421.
func TestExportImport(t *testing.T) {
	dst, dsrv := startPrimary(t, testSongs(4, 1, 1000), NodeConfig{Group: "b", Logf: t.Logf})
	shipped := testSongs(3, 5, 0)
	stream, err := EncodeExport(shipped)
	if err != nil {
		t.Fatal(err)
	}
	importInto := func(url string, wantStatus, wantApplied int) {
		t.Helper()
		resp, err := http.Post(url+PathImport, "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("import into %s returned %s, want %d", url, resp.Status, wantStatus)
		}
		if wantStatus != http.StatusOK {
			return
		}
		var out struct{ Applied, Received int }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Applied != wantApplied || out.Received != len(shipped) {
			t.Fatalf("import applied %d/%d, want %d/%d", out.Applied, out.Received, wantApplied, len(shipped))
		}
	}

	before := dst.NumSongs()
	importInto(dsrv.URL, http.StatusOK, len(shipped))
	if got := dst.NumSongs(); got != before+len(shipped) {
		t.Fatalf("destination has %d songs after import, want %d", got, before+len(shipped))
	}
	for _, song := range shipped {
		if !dst.HasSong(song.ID) {
			t.Fatalf("song %d (%q) missing on destination", song.ID, song.Title)
		}
	}
	importInto(dsrv.URL, http.StatusOK, 0) // idempotent by id

	follower := startFollower(t, t.TempDir(), nil, dsrv.URL)
	fmux := http.NewServeMux()
	follower.Mount(fmux)
	fsrv := httptest.NewServer(fmux)
	defer fsrv.Close()
	importInto(fsrv.URL, http.StatusMisdirectedRequest, 0)
}

// TestDefaultPromotePathWorks: POSTing PathPromote — what the coordinator
// sends a two-replica group's follower — to a mounted follower promotes it.
func TestDefaultPromotePathWorks(t *testing.T) {
	base := testSongs(5, 2, 0)
	_, psrv := startPrimary(t, base, NodeConfig{Group: "g", Logf: t.Logf})
	follower := startFollower(t, t.TempDir(), base, psrv.URL)
	fmux := http.NewServeMux()
	follower.Mount(fmux)
	fsrv := httptest.NewServer(fmux)
	defer fsrv.Close()

	resp, err := http.Post(fsrv.URL+PathPromote, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote returned %s", resp.Status)
	}
	if follower.Role() != RolePrimary {
		t.Fatalf("follower role after promote = %q", follower.Role())
	}
}

func TestSemiSyncWriteWaitsForFollower(t *testing.T) {
	base := testSongs(14, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{
		MinSyncFollowers: 1,
		SyncTimeout:      5 * time.Second,
	})
	startFollower(t, t.TempDir(), base, srv.URL)

	// The write only returns once the follower's ack watermark covers it.
	if _, err := primary.AddSongTitled("semi-sync", testSongs(15, 1, 800)[0].Melody); err != nil {
		t.Fatalf("semi-sync write failed: %v", err)
	}
	// The follower's recorded ack must now be at the primary's frontier.
	if primary.Followers() != 1 {
		t.Fatalf("followers = %d, want 1", primary.Followers())
	}
}

func TestSemiSyncWriteFailsWithoutFollowers(t *testing.T) {
	base := testSongs(16, 3, 0)
	primary, _ := startPrimary(t, base, NodeConfig{
		MinSyncFollowers: 1,
		SyncTimeout:      100 * time.Millisecond,
	})
	_, err := primary.AddSongTitled("no quorum", testSongs(17, 1, 900)[0].Melody)
	if !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("quorumless semi-sync write error = %v, want ErrNotReplicated", err)
	}
	// The write is still locally durable (it ships when a follower shows
	// up) — it is just not acknowledged.
	if got := primary.NumSongs(); got != len(base)+1 {
		t.Fatal("unconfirmed write vanished from the primary")
	}
}

func TestBootstrapFromPrimary(t *testing.T) {
	base := testSongs(18, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	dir := t.TempDir()
	if err := BootstrapFromPrimary(store.OS(), dir, srv.URL, srv.Client()); err != nil {
		t.Fatal(err)
	}
	// The bootstrapped directory opens without a builder — the snapshot
	// is in place — and matches the primary.
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:                 store.OS(),
		Logf:               func(string, ...interface{}) {},
		SnapshotWALRecords: -1,
		SnapshotWALBytes:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	if d.Digest() != primary.Digest() {
		t.Fatal("bootstrapped corpus differs from primary")
	}
	pos, err := loadPosition(d)
	if err != nil {
		t.Fatal(err)
	}
	if pos.Epoch != primary.Epoch() {
		t.Fatalf("bootstrapped position epoch %d, primary epoch %d", pos.Epoch, primary.Epoch())
	}
	// Bootstrapping again is a no-op: the directory is already primed.
	if err := BootstrapFromPrimary(store.OS(), dir, srv.URL, srv.Client()); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrappedEpochNeverZero pins the invariant the zero replication
// position relies on: a live node's epoch is always >= 1, including a
// node whose directory was seeded by BootstrapFromPrimary (which ships a
// snapshot but no epoch file, so OpenDurable skips the initial
// compaction that would otherwise mint epoch 1).
func TestBootstrappedEpochNeverZero(t *testing.T) {
	base := testSongs(31, 4, 0)
	_, srv := startPrimary(t, base, NodeConfig{})
	dir := t.TempDir()
	if err := BootstrapFromPrimary(store.OS(), dir, srv.URL, srv.Client()); err != nil {
		t.Fatal(err)
	}
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:                 store.OS(),
		Logf:               func(string, ...interface{}) {},
		SnapshotWALRecords: -1,
		SnapshotWALBytes:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	if d.Epoch() < 1 {
		t.Fatalf("bootstrapped store opened at epoch %d; 0 must never be live", d.Epoch())
	}
}

// TestPromoteStartsFreshEpoch: promotion must start a WAL generation
// strictly after the dead primary's, so a position the old primary issued
// epoch-mismatches against the promoted node and forces a snapshot
// re-sync instead of reading alien offsets out of the new log.
func TestPromoteStartsFreshEpoch(t *testing.T) {
	base := testSongs(32, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	follower := startFollower(t, t.TempDir(), base, srv.URL)
	for _, s := range testSongs(33, 3, 100) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, primary, follower, 5*time.Second)

	oldPos := primary.ReplState() // what a sibling follower would hold
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := follower.Epoch(); got <= oldPos.Epoch {
		t.Fatalf("promoted epoch %d not past old primary epoch %d", got, oldPos.Epoch)
	}
	// A replica presenting the dead primary's position gets told to
	// snapshot-sync, never served records from the new log.
	if _, _, err := follower.WALRecordsFrom(oldPos, 1<<20); !errors.Is(err, qbh.ErrSnapshotNeeded) {
		t.Fatalf("old-primary position served from new log: err=%v", err)
	}
}

// The WAL cannot be bypassed through a durable backend: neither type has
// the System's Index or Save in its method set, however the embedding is
// arranged.
func TestDurableCannotBypassWAL(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf((*qbh.Durable)(nil)), reflect.TypeOf((*Node)(nil))} {
		for _, name := range []string{"Index", "Save"} {
			if _, ok := typ.MethodByName(name); ok {
				t.Errorf("%v has %s: a caller can reach the System past the write-ahead log", typ, name)
			}
		}
		if _, ok := typ.MethodByName("QueryCtx"); !ok {
			t.Errorf("%v lost QueryCtx", typ)
		}
	}
}

// The /replica/wal payload is part of the replication protocol: a batch
// carries each record's offset and base64 payload, a caught-up answer no
// records key.
func TestWALResponseJSONShape(t *testing.T) {
	for _, tc := range []struct {
		resp WALResponse
		want string
	}{
		{WALResponse{Epoch: 3, Records: []store.WALRecord{{Offset: 8, Payload: []byte("hi")}, {Offset: 18, Payload: []byte{0xff}}}, NextOffset: 27},
			`{"epoch":3,"records":[{"offset":8,"payload":"aGk="},{"offset":18,"payload":"/w=="}],"next_offset":27}`},
		{WALResponse{Epoch: 3, NextOffset: 27}, `{"epoch":3,"next_offset":27}`},
		{WALResponse{Epoch: 4, SnapshotNeeded: true}, `{"epoch":4,"next_offset":0,"snapshot_needed":true}`},
	} {
		got, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("JSON = %s\nwant   %s", got, tc.want)
		}
	}
}
