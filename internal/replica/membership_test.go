package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"warping/internal/membership"
)

// TestMembershipPathPin keeps the endpoint paths the membership package
// drives (it cannot import this package) in lockstep with the ones this
// package actually mounts.
func TestMembershipPathPin(t *testing.T) {
	pins := []struct{ ours, theirs string }{
		{PathPromote, membership.DefaultPromotePath},
		{PathExport, membership.DefaultExportPath},
		{PathImport, membership.DefaultImportPath},
	}
	for _, p := range pins {
		if p.ours != p.theirs {
			t.Errorf("path drift: replica mounts %q, membership drives %q", p.ours, p.theirs)
		}
	}
	if string(RolePrimary) != membership.RolePrimary || string(RoleFollower) != membership.RoleFollower {
		t.Errorf("role constant drift between replica and membership")
	}
}

// TestObserveViewFences drives the fencing check directly: a primary that
// sees a same-group unfenced primary with a later WAL epoch must fence
// itself and refuse writes; anything else must not fence it.
func TestObserveViewFences(t *testing.T) {
	base := testSongs(1, 3, 0)
	n, _ := startPrimary(t, base, NodeConfig{Group: "g1", Logf: t.Logf})
	myEpoch := n.Durable.Epoch()

	mkView := func(rec membership.NodeRecord) membership.View {
		return membership.View{Nodes: map[string]membership.NodeRecord{rec.ID: rec}}
	}
	benign := []membership.NodeRecord{
		{ID: "self", Group: "g1", Role: membership.RolePrimary, WALEpoch: myEpoch + 5},  // own record
		{ID: "other", Group: "g2", Role: membership.RolePrimary, WALEpoch: myEpoch + 5}, // other group
		{ID: "other", Group: "g1", Role: membership.RoleFollower, WALEpoch: myEpoch + 5},
		{ID: "other", Group: "g1", Role: membership.RolePrimary, WALEpoch: myEpoch}, // same epoch
		{ID: "other", Group: "g1", Role: membership.RolePrimary, Fenced: true, WALEpoch: myEpoch + 5},
	}
	for _, rec := range benign {
		n.ObserveView("self", mkView(rec))
		if n.Fenced() {
			t.Fatalf("fenced by benign record %+v", rec)
		}
	}
	extra := testSongs(9, 1, 100)[0]
	if _, err := n.AddSongTitled("pre-fence", extra.Melody); err != nil {
		t.Fatalf("unfenced primary refused write: %v", err)
	}

	n.ObserveView("self", mkView(membership.NodeRecord{
		ID: "successor", Group: "g1", Role: membership.RolePrimary, WALEpoch: myEpoch + 1,
	}))
	if !n.Fenced() {
		t.Fatal("primary did not fence on a higher-epoch successor")
	}
	if _, err := n.AddSongTitled("post-fence", extra.Melody); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("fenced primary write: got %v, want ErrNotPrimary", err)
	}
	if !n.State().Fenced {
		t.Fatal("fenced flag missing from state")
	}
	// The fenced flag travels in the node's own membership record.
	if rec := n.MembershipRecord("self", "http://self"); !rec.Fenced {
		t.Fatal("fenced flag missing from membership record")
	}
}

// primaryHint is the primary URL a write refused by n would carry ("" when
// n accepts writes or knows no primary).
func primaryHint(n *Node) string {
	var np *NotPrimaryError
	if errors.As(n.writeGate(), &np) {
		return np.Primary
	}
	return ""
}

// TestRepoint: a follower's pull target follows the membership view. One
// started against a dead URL — down during a failover, say, and restarted
// with its original -peers — ignores a view whose group has no unfenced
// primary but itself, then converges on the primary a view names, and its
// 421 hint names that primary too. A primary follows nothing.
func TestRepoint(t *testing.T) {
	base := testSongs(2, 3, 0)
	primary, psrv := startPrimary(t, base, NodeConfig{Group: "g", Logf: t.Logf})
	if _, err := primary.AddSongTitled("after the failover", testSongs(7, 1, 100)[0].Melody); err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	dir := t.TempDir()
	follower, err := NewNode(openDurable(t, dir, base), NodeConfig{
		Group: "g", Role: RoleFollower, PrimaryURL: dead.URL, FollowerID: dir,
		PollWait: 200 * time.Millisecond, Backoff: fastBackoff, Logf: func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })

	view := func(recs ...membership.NodeRecord) membership.View {
		v := membership.View{Nodes: map[string]membership.NodeRecord{}}
		for _, rec := range recs {
			v.Nodes[rec.ID] = rec
		}
		return v
	}
	fenced := membership.NodeRecord{ID: "old", URL: "http://old:1", Group: "g", Role: membership.RolePrimary, Fenced: true, WALEpoch: 9}
	for _, v := range []membership.View{
		view(membership.NodeRecord{ID: "f", URL: "http://f:1", Group: "g", Role: membership.RoleFollower}, fenced),
		view(membership.NodeRecord{ID: "f", URL: "http://f:1", Group: "g", Role: membership.RolePrimary}),
		view(membership.NodeRecord{ID: "h", URL: "http://h:1", Group: "h", Role: membership.RolePrimary}),
	} {
		follower.ObserveView("f", v)
		if got := follower.primaryURL(); got != dead.URL {
			t.Fatalf("pull target moved to %q on view %+v", got, v)
		}
	}

	follower.ObserveView("f", view(fenced, membership.NodeRecord{
		ID: "p", URL: psrv.URL, Group: "g", Role: membership.RolePrimary, WALEpoch: primary.Epoch(),
	}))
	if got := follower.primaryURL(); got != psrv.URL {
		t.Fatalf("pull target = %q, want the view's primary %q", got, psrv.URL)
	}
	if got := primaryHint(follower); got != psrv.URL {
		t.Fatalf("primary hint = %q, want %q", got, psrv.URL)
	}
	waitConverged(t, primary, follower, 10*time.Second)

	primary.ObserveView("p", view(membership.NodeRecord{ID: "x", URL: "http://x:1", Group: "g", Role: membership.RolePrimary}))
	if primary.Role() != RolePrimary || primaryHint(primary) != "" {
		t.Fatal("a primary followed the view")
	}
}

// TestExportImport round-trips a migration leg: export the songs a target
// ring places on a group, import them on another node, and check the
// placement filter, id preservation and idempotency.
func TestExportImport(t *testing.T) {
	srcSongs := testSongs(3, 24, 0)
	src, ssrv := startPrimary(t, srcSongs, NodeConfig{Group: "a", Logf: t.Logf})
	dst, dsrv := startPrimary(t, testSongs(4, 1, 1000), NodeConfig{Group: "b", Logf: t.Logf})

	ring := membership.NewRing(2, []string{"a", "b"})
	wantMoving := 0
	for _, song := range src.Songs() {
		if ring.Owner(song.Title) == "b" {
			wantMoving++
		}
	}
	if wantMoving == 0 || wantMoving == src.NumSongs() {
		t.Fatalf("test corpus does not split across the ring (%d/%d moving)", wantMoving, src.NumSongs())
	}

	export := func() []byte {
		body, err := json.Marshal(membership.ExportRequest{Ring: ring, Group: "b"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ssrv.URL+PathExport, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export returned %s", resp.Status)
		}
		if got := resp.Header.Get(membership.ExportCountHeader); got != strconv.Itoa(wantMoving) {
			t.Fatalf("export count header = %q, want %d", got, wantMoving)
		}
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	importInto := func(stream []byte, wantApplied int) {
		resp, err := http.Post(dsrv.URL+PathImport, "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("import returned %s", resp.Status)
		}
		var out struct{ Applied, Received int }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Applied != wantApplied || out.Received != wantMoving {
			t.Fatalf("import applied %d/%d, want %d/%d", out.Applied, out.Received, wantApplied, wantMoving)
		}
	}

	stream := export()
	before := dst.NumSongs()
	importInto(stream, wantMoving)
	if got := dst.NumSongs(); got != before+wantMoving {
		t.Fatalf("destination has %d songs after import, want %d", got, before+wantMoving)
	}
	// Shipped songs keep their ids and the source keeps its copies.
	for _, song := range src.Songs() {
		if ring.Owner(song.Title) == "b" && !dst.HasSong(song.ID) {
			t.Fatalf("song %d (%q) missing on destination", song.ID, song.Title)
		}
	}
	if src.NumSongs() != len(srcSongs) {
		t.Fatalf("source lost songs during export: %d", src.NumSongs())
	}
	// Second import of the same stream is a pure no-op.
	importInto(stream, 0)

	// A follower refuses imports with 421 (writes go to the primary).
	follower := startFollower(t, t.TempDir(), srcSongs, ssrv.URL)
	fmux := http.NewServeMux()
	follower.Mount(fmux)
	fsrv := httptest.NewServer(fmux)
	defer fsrv.Close()
	resp, err := http.Post(fsrv.URL+PathImport, "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower import returned %s, want 421", resp.Status)
	}
}

// TestDefaultPromotePathWorks is a behavioral pin: POSTing membership's
// default promote path against a mounted follower actually promotes it.
func TestDefaultPromotePathWorks(t *testing.T) {
	base := testSongs(5, 2, 0)
	_, psrv := startPrimary(t, base, NodeConfig{Group: "g", Logf: t.Logf})
	follower := startFollower(t, t.TempDir(), base, psrv.URL)
	fmux := http.NewServeMux()
	follower.Mount(fmux)
	fsrv := httptest.NewServer(fmux)
	defer fsrv.Close()

	resp, err := http.Post(fsrv.URL+membership.DefaultPromotePath, "application/json", nil)
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

// TestObserveRingInstallsCompactionReaper checks the membership-driven
// reaping pipeline: a committed ring containing this node's group installs a
// compaction keep-filter that drops migrated-away songs at the next
// snapshot, while a pending rebalance, a ring missing the group, or an
// empty ring all clear the filter (reaping on an uncommitted or partial
// view could destroy the only copy of a song mid-migration).
func TestObserveRingInstallsCompactionReaper(t *testing.T) {
	base := testSongs(6, 24, 0)
	n, _ := startPrimary(t, base, NodeConfig{Group: "a", Logf: t.Logf})

	ring := membership.NewRing(3, []string{"a", "b"})
	wantKeep := 0
	for _, song := range n.Songs() {
		if ring.Owner(song.Title) == "a" {
			wantKeep++
		}
	}
	if wantKeep == 0 || wantKeep == len(base) {
		t.Fatalf("test corpus does not split across the ring (%d/%d kept)", wantKeep, len(base))
	}

	snapshot := func() {
		if err := n.Durable.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	// A pending rebalance must suppress reaping even with a committed ring.
	n.ObserveView("self", membership.View{
		Ring:      ring,
		Rebalance: membership.Rebalance{From: ring, To: membership.NewRing(4, []string{"a", "b", "c"})},
	})
	snapshot()
	if n.NumSongs() != len(base) {
		t.Fatalf("reaped during pending rebalance: %d songs left", n.NumSongs())
	}

	// A ring that does not place this group must not reap (the node may be
	// draining; its songs are exported, not destroyed locally by surprise).
	n.ObserveView("self", membership.View{Ring: membership.NewRing(3, []string{"b", "c"})})
	snapshot()
	if n.NumSongs() != len(base) {
		t.Fatalf("reaped under a ring missing our group: %d songs left", n.NumSongs())
	}

	// The committed ring installs the filter; compaction reaps foreign songs.
	n.ObserveView("self", membership.View{Ring: ring})
	snapshot()
	if got := n.NumSongs(); got != wantKeep {
		t.Fatalf("after committed-ring compaction: %d songs, want %d", got, wantKeep)
	}
	if got := n.Durable.ReapedSongs(); got != int64(len(base)-wantKeep) {
		t.Fatalf("ReapedSongs = %d, want %d", got, len(base)-wantKeep)
	}
	for _, song := range n.Songs() {
		if ring.Owner(song.Title) != "a" {
			t.Fatalf("song %q survived compaction but is owned by %q", song.Title, ring.Owner(song.Title))
		}
	}

	// An empty ring clears the filter again.
	n.ObserveView("self", membership.View{})
	snapshot()
	if got := n.NumSongs(); got != wantKeep {
		t.Fatalf("empty ring still reaped: %d songs, want %d", got, wantKeep)
	}
}
