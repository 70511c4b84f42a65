package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/store"
)

// Role reports the node's current duty.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Followers reports how many followers have a recorded ack watermark.
func (n *Node) Followers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.acks)
}

var testOpts = qbh.Options{NormalLen: 32, Dim: 4, PhraseMin: 8, PhraseMax: 12}

func testSongs(seed int64, count int, idOffset int64) []music.Song {
	songs := music.GenerateSongs(seed, count, 20, 30)
	for i := range songs {
		songs[i].ID += idOffset
	}
	return songs
}

func openDurable(t testing.TB, dir string, base []music.Song) *qbh.Durable {
	t.Helper()
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:    store.OS(),
		Logf:  func(string, ...interface{}) {},
		Build: func() (*qbh.System, error) { return qbh.Build(base, testOpts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

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
	return n, serve(t, n, nil)
}

// serve mounts n's replication endpoints on an httptest server, behind
// wrap when it is not nil.
func serve(t *testing.T, n *Node, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	n.Mount(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// shipLog records the id of every song a primary's PathWAL responses
// ship.
type shipLog struct {
	mu  sync.Mutex
	ids []int64
}

func (l *shipLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathWAL {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if songs, err := qbh.DecodeSongs(rec.Body.Bytes()); err == nil {
			l.mu.Lock()
			for _, s := range songs {
				l.ids = append(l.ids, s.ID)
			}
			l.mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

func (l *shipLog) take() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := l.ids
	l.ids = nil
	return ids
}

// startFollower opens a follower in dir pulling from primaryURL.
func startFollower(t *testing.T, dir string, base []music.Song, primaryURL string) *Node {
	t.Helper()
	d := openDurable(t, dir, base)
	n, err := NewNode(d, NodeConfig{
		Role:       RoleFollower,
		PrimaryURL: primaryURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// waitPosition waits until the follower's durable position is want.
func waitPosition(t *testing.T, follower *Node, want qbh.ReplicationState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for follower.Position() != want {
		if time.Now().After(deadline) {
			t.Fatalf("follower position %v, want %v", follower.Position(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	waitConverged(t, primary, follower, 5*time.Second)

	// The follower's position reaches the primary's frontier — after the
	// digests agree, not with them: the position is the durable watermark,
	// saved once the batch's songs are fsynced, and the memory add that
	// moves the digest comes first (see pullOnce).
	waitPosition(t, follower, primary.ReplState())
	// And the primary recorded its ack watermark.
	if primary.Followers() == 0 {
		t.Fatal("primary recorded no follower ack watermark")
	}
}

func TestFreshFollowerSyncsFromZero(t *testing.T) {
	base := testSongs(3, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	// The follower starts with a smaller corpus and the zero position: it
	// is shipped the whole sequence and applies the songs it lacks.
	follower := startFollower(t, t.TempDir(), testSongs(3, 1, 0), srv.URL)
	waitConverged(t, primary, follower, 5*time.Second)
	waitPosition(t, follower, primary.ReplState())
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
	// position.
	follower2 := startFollower(t, dir, nil, srv.URL)
	waitConverged(t, primary, follower2, 5*time.Second)
}

func TestFollowerCatchesUpPastCompaction(t *testing.T) {
	base := testSongs(7, 3, 0)
	d := openDurable(t, t.TempDir(), base)
	primary, err := NewNode(d, NodeConfig{Role: RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	var shipped shipLog
	srv := serve(t, primary, shipped.wrap)

	dir := t.TempDir()
	follower := startFollower(t, dir, base, srv.URL)
	waitPosition(t, follower, primary.ReplState())
	before := follower.Position()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down: writes, then a snapshot compaction that
	// resets the primary's WAL. Neither moves the follower's position.
	var added []int64
	for _, s := range testSongs(8, 3, 400) {
		song, err := primary.AddSongTitled(s.Title, s.Melody)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, song.ID)
	}
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if primary.ReplState().Epoch != before.Epoch {
		t.Fatalf("compaction moved the primary's epoch %d -> %d", before.Epoch, primary.ReplState().Epoch)
	}
	shipped.take()

	follower2 := startFollower(t, dir, nil, srv.URL)
	waitConverged(t, primary, follower2, 5*time.Second)
	waitPosition(t, follower2, primary.ReplState())
	if got := shipped.take(); !reflect.DeepEqual(got, added) {
		t.Fatalf("restarted follower was shipped songs %v, want only the %v added since its position", got, added)
	}
	if got := follower2.Position().Epoch; got != before.Epoch {
		t.Fatalf("follower epoch %d -> %d", before.Epoch, got)
	}
}

// A follower whose data directory still holds an earlier version's
// byte-offset position file ignores it: it starts from the zero position
// and converges. Read as a seq, "1:2" would skip the first two songs.
func TestLeftoverOffsetPositionIgnored(t *testing.T) {
	base := testSongs(41, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "replica.pos"), []byte("1:2"), 0o644); err != nil {
		t.Fatal(err)
	}
	follower := startFollower(t, dir, nil, srv.URL)
	waitConverged(t, primary, follower, 5*time.Second)
	waitPosition(t, follower, primary.ReplState())
}

// A pull between mismatched versions is refused, never misread: a primary
// answers an old follower's ?pos= with 400, and a follower pulling from a
// primary that refuses its ?from= backs off and retries at the zero
// position, moving nothing.
func TestMismatchedVersionPullRefused(t *testing.T) {
	_, srv := startPrimary(t, testSongs(42, 2, 0), NodeConfig{})
	resp, err := http.Get(srv.URL + PathWAL + "?pos=1:8&wait=0&follower=old")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("old-style pull answered %s, want 400", resp.Status)
	}

	froms := make(chan string, 100)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case froms <- r.URL.Query().Get("from"):
		default:
		}
		http.Error(w, "bad pos", http.StatusBadRequest)
	}))
	defer old.Close()
	follower := startFollower(t, t.TempDir(), nil, old.URL)
	for i := 0; i < 3; i++ {
		select {
		case from := <-froms:
			if from != "0:0" {
				t.Fatalf("retry %d pulled from %q, want 0:0", i, from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("follower stopped retrying after %d refused pulls", i)
		}
	}
	if pos := follower.Position(); pos != (qbh.ReplicationState{}) {
		t.Fatalf("refused pulls moved the position to %v", pos)
	}
}

// The follower id travels as a query value: one holding '&' and '#' — the
// default id is the data directory, which can — reaches the primary's ack
// watermarks whole.
func TestFollowerIDWithQueryCharacters(t *testing.T) {
	base := testSongs(43, 2, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	dir := filepath.Join(t.TempDir(), "a&b#c")
	startFollower(t, dir, base, srv.URL)
	deadline := time.Now().Add(5 * time.Second)
	for primary.Followers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("primary recorded no follower")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, acks := primary.status(); len(acks) != 1 || acks[dir] == "" {
		t.Fatalf("ack watermarks %v, want one under %q", acks, dir)
	}
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
// a qbh.EncodeSongs body POSTed to PathImport lands every song under its
// own id, a second POST of the same container applies nothing, and a
// follower refuses the import with 421.
func TestExportImport(t *testing.T) {
	dst, dsrv := startPrimary(t, testSongs(4, 1, 1000), NodeConfig{Group: "b"})
	shipped := testSongs(3, 5, 0)
	stream := qbh.EncodeSongs(shipped)
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
	have := map[int64]bool{}
	for _, song := range dst.Songs() {
		have[song.ID] = true
	}
	for _, song := range shipped {
		if !have[song.ID] {
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

// TestImportRefusesHostileSong: an import holding a song of 2^62 ticks —
// whose time series no node could allocate — is a 400 that applies nothing,
// and the next import lands.
func TestImportRefusesHostileSong(t *testing.T) {
	dst, dsrv := startPrimary(t, testSongs(4, 1, 1000), NodeConfig{Group: "b"})
	post := func(songs []music.Song) int {
		t.Helper()
		resp, err := http.Post(dsrv.URL+PathImport, "application/octet-stream", bytes.NewReader(qbh.EncodeSongs(songs)))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}
	good := testSongs(3, 2, 0)
	hostile := music.Song{ID: 77, Title: "hostile", Melody: music.Melody{{Pitch: 60, Duration: 1 << 62}}}
	before, digest := dst.NumSongs(), dst.Digest()
	if got := post([]music.Song{good[0], hostile}); got != http.StatusBadRequest {
		t.Fatalf("import of a 2^62-tick song returned %d, want 400", got)
	}
	if dst.NumSongs() != before || dst.Digest() != digest {
		t.Fatalf("the refused import changed the database: %d songs, was %d", dst.NumSongs(), before)
	}
	if got := post(good); got != http.StatusOK || dst.NumSongs() != before+len(good) {
		t.Fatalf("the next import returned %d and left %d songs, want 200 and %d", got, dst.NumSongs(), before+len(good))
	}
}

// TestImportNotDurable503: an import whose WAL fsync fails is a 503, as
// POST /songs answers it, with the reason in the JSON error shape.
func TestImportNotDurable503(t *testing.T) {
	fsys := store.NewFaultFS(store.OS())
	d, err := qbh.OpenDurable(t.TempDir(), qbh.DurableOptions{
		FS:    fsys,
		Logf:  func(string, ...interface{}) {},
		Build: func() (*qbh.System, error) { return qbh.Build(testSongs(4, 1, 1000), testOpts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(d, NodeConfig{Group: "b", Role: RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	srv := serve(t, n, nil)
	fsys.FailSyncs(errors.New("disk gone"))
	defer fsys.FailSyncs(nil)
	resp, err := http.Post(srv.URL+PathImport, "application/octet-stream", bytes.NewReader(qbh.EncodeSongs(testSongs(3, 1, 0))))
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	var reply struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(reply.Error, "disk gone") {
		t.Fatalf("import under a failing fsync: %s %q (%v), want 503 naming the fault", resp.Status, reply.Error, err)
	}
}

// TestImportBodyCapped: a PathImport body past maxImportBytes — here a
// well-formed run whose one song has a 16 MiB title — is a 413, and none of
// it is applied; the next import within the cap lands.
func TestImportBodyCapped(t *testing.T) {
	dst, dsrv := startPrimary(t, testSongs(4, 1, 1000), NodeConfig{Group: "b"})
	good := testSongs(3, 2, 0)
	huge := good[0]
	huge.ID, huge.Title = 77, string(make([]byte, maxImportBytes))
	before := dst.NumSongs()
	for _, c := range []struct {
		songs []music.Song
		want  int
		after int
	}{
		{[]music.Song{good[1], huge}, http.StatusRequestEntityTooLarge, before},
		{good, http.StatusOK, before + len(good)},
	} {
		resp, err := http.Post(dsrv.URL+PathImport, "application/octet-stream", bytes.NewReader(qbh.EncodeSongs(c.songs)))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		if resp.StatusCode != c.want || dst.NumSongs() != c.after {
			t.Fatalf("import of %d songs returned %d and left %d songs, want %d and %d", len(c.songs), resp.StatusCode, dst.NumSongs(), c.want, c.after)
		}
	}
}

// TestDefaultPromotePathWorks: POSTing PathPromote — what the coordinator
// sends a two-replica group's follower — to a mounted follower promotes it.
func TestDefaultPromotePathWorks(t *testing.T) {
	base := testSongs(5, 2, 0)
	_, psrv := startPrimary(t, base, NodeConfig{Group: "g"})
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
	primary, srv := startPrimary(t, base, NodeConfig{MinSyncFollowers: 1})
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
	primary, _ := startPrimary(t, base, NodeConfig{MinSyncFollowers: 1})
	primary.syncTimeout = 100 * time.Millisecond // nothing will confirm: fail fast
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
	base := testSongs(18, maxBatchSongs+4, 0) // the bootstrap pulls two batches
	primary, srv := startPrimary(t, base, NodeConfig{})
	for _, s := range testSongs(19, 2, 100) {
		if _, err := primary.AddSongTitled(s.Title, s.Melody); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	songs, err := BootstrapFromPrimary(dir, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := openDurable(t, dir, songs)
	t.Cleanup(func() { _ = d.Close() })
	if d.Digest() != primary.Digest() || d.NumSongs() != primary.NumSongs() {
		t.Fatal("bootstrapped corpus differs from primary")
	}
	pos, err := loadPosition(d)
	if err != nil {
		t.Fatal(err)
	}
	if pos != primary.ReplState() {
		t.Fatalf("bootstrapped position %v, primary frontier %v", pos, primary.ReplState())
	}
	// Bootstrapping again is a no-op: the directory is already primed.
	again, err := BootstrapFromPrimary(dir, srv.URL)
	if err != nil || len(again) != 0 {
		t.Fatalf("second bootstrap: %d songs, err %v; want none", len(again), err)
	}
	if pos2, err := loadPosition(d); err != nil || pos2 != pos {
		t.Fatalf("second bootstrap moved the position %v -> %v (err %v)", pos, pos2, err)
	}
}

// A bootstrapped follower's directory has no epoch file: its store opens
// at epoch 1, never 0, and promoting it enters an epoch past its
// primary's.
func TestBootstrappedEpochNeverZero(t *testing.T) {
	base := testSongs(31, 4, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	if err := primary.PromoteEpoch(0); err != nil { // primary at epoch 2
		t.Fatal(err)
	}
	dir := t.TempDir()
	songs, err := BootstrapFromPrimary(dir, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := openDurable(t, dir, songs)
	t.Cleanup(func() { _ = d.Close() })
	if d.ReplState().Epoch != 1 {
		t.Fatalf("bootstrapped store opened at epoch %d, want 1", d.ReplState().Epoch)
	}
	pos, err := loadPosition(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PromoteEpoch(pos.Epoch); err != nil {
		t.Fatal(err)
	}
	if d.ReplState().Epoch <= primary.ReplState().Epoch {
		t.Fatalf("promoted epoch %d not past the primary's %d", d.ReplState().Epoch, primary.ReplState().Epoch)
	}
}

// TestPromoteStartsFreshEpoch: promotion enters an epoch strictly after
// the dead primary's, so a position the old primary issued is served from
// seq 0 by the promoted node instead of being read against its sequence.
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
	if got := follower.ReplState().Epoch; got <= oldPos.Epoch {
		t.Fatalf("promoted epoch %d not past old primary epoch %d", got, oldPos.Epoch)
	}
	songs, next := follower.SongsFrom(oldPos, 1<<20)
	if len(songs) != follower.NumSongs() || next != follower.ReplState() {
		t.Fatalf("old-primary position %v served %d of %d songs up to %v", oldPos, len(songs), follower.NumSongs(), next)
	}
}

// Divergence after promotion: the old primary acknowledged a song
// asynchronously that the promoted follower never pulled, and the promoted
// node took a write of its own. The old primary, rejoining as a follower
// of the promoted node with its own last position, converges on the union
// of both corpora.
func TestDivergenceAfterPromotionConvergesOnUnion(t *testing.T) {
	base := testSongs(44, 3, 0)
	primary, srv := startPrimary(t, base, NodeConfig{})
	follower := startFollower(t, t.TempDir(), base, srv.URL)
	if _, err := primary.AddSongTitled("both", testSongs(45, 1, 0)[0].Melody); err != nil {
		t.Fatal(err)
	}
	waitPosition(t, follower, primary.ReplState())
	follower.Stop()
	if _, err := primary.AddSongTitled("old primary only", testSongs(46, 1, 0)[0].Melody); err != nil {
		t.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if follower.ReplState().Epoch <= primary.ReplState().Epoch {
		t.Fatalf("promoted epoch %d not past old primary epoch %d", follower.ReplState().Epoch, primary.ReplState().Epoch)
	}
	own := testSongs(47, 1, 900)[0]
	if _, err := follower.ApplySong(own); err != nil {
		t.Fatal(err)
	}

	union := map[int64]music.Song{}
	for _, s := range append(primary.Songs(), follower.Songs()...) {
		union[s.ID] = s
	}
	var unionSongs []music.Song
	for _, s := range union {
		unionSongs = append(unionSongs, s)
	}
	want, err := qbh.Build(unionSongs, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Digest() == primary.Digest() || want.Digest() == follower.Digest() {
		t.Fatal("the two corpora did not diverge")
	}

	oldPos, oldDir := primary.ReplState(), primary.Dir()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writePosition(store.OS(), oldDir, oldPos); err != nil {
		t.Fatal(err)
	}
	rejoined := startFollower(t, oldDir, nil, serve(t, follower, nil).URL)
	deadline := time.Now().Add(5 * time.Second)
	for rejoined.Digest() != want.Digest() {
		if time.Now().After(deadline) {
			t.Fatalf("rejoined old primary holds %d songs, union is %d", rejoined.NumSongs(), len(union))
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitPosition(t, rejoined, follower.ReplState())
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

// BenchmarkNodeState is one GET /replica/state, which the coordinator's
// prober sends every replica each tick, on a primary of 500 songs of
// 200–400 notes.
func BenchmarkNodeState(b *testing.B) {
	n, err := NewNode(openDurable(b, b.TempDir(), music.GenerateSongs(1, 500, 200, 400)), NodeConfig{Group: "g", Role: RolePrimary})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = n.Close() })
	mux := http.NewServeMux()
	n.Mount(mux)
	req := httptest.NewRequest(http.MethodGet, PathState, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("state answered %d", w.Code)
		}
	}
}
