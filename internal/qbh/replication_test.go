package qbh

import (
	"reflect"
	"testing"
	"time"

	"warping/internal/music"
	"warping/internal/store"
)

func openReplDurable(t *testing.T, dir string, base []music.Song) *Durable {
	t.Helper()
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func songIDs(songs []music.Song) []int64 {
	ids := make([]int64, len(songs))
	for i, s := range songs {
		ids[i] = s.ID
	}
	return ids
}

// shipAll returns every durable song of d's sequence, as a follower
// pulling from the zero position is shipped them.
func shipAll(d *Durable) []music.Song {
	songs, _ := d.SongsFrom(ReplicationState{}, 1<<30)
	return songs
}

// The epoch is the promotion generation only: a snapshot leaves it alone,
// a promotion moves it past both the local epoch and the floor it is
// given, and a promoted epoch survives a restart.
func TestSnapshotKeepsEpochPromotionPersists(t *testing.T) {
	dir := t.TempDir()
	d := openReplDurable(t, dir, smallSongs(21, 3, 0))
	if got := d.ReplState().Epoch; got != 1 {
		t.Fatalf("fresh open at epoch %d, want 1", got)
	}
	if _, err := d.ApplySong(smallSongs(22, 1, 100)[0]); err != nil {
		t.Fatal(err)
	}
	before := d.ReplState()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.ReplState(); got != before {
		t.Fatalf("snapshot moved the frontier %v -> %v", before, got)
	}
	if err := d.PromoteEpoch(4); err != nil {
		t.Fatal(err)
	}
	if got := d.ReplState().Epoch; got != 5 {
		t.Fatalf("PromoteEpoch(4) from epoch 1 = %d, want 5", got)
	}
	if err := d.PromoteEpoch(0); err != nil {
		t.Fatal(err)
	}
	if got := d.ReplState().Epoch; got != 6 {
		t.Fatalf("PromoteEpoch(0) from epoch 5 = %d, want 6", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openReplDurable(t, dir, nil)
	if got := d2.ReplState().Epoch; got != 6 {
		t.Fatalf("epoch after restart = %d, want 6", got)
	}
}

func TestSongsFromShipsAckedWrites(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(22, 2, 0))
	pos := d.ReplState()

	extra := smallSongs(23, 3, 100)
	for _, s := range extra {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	songs, next := d.SongsFrom(pos, 100)
	if !reflect.DeepEqual(songIDs(songs), songIDs(extra)) {
		t.Fatalf("shipped %v, want %v", songIDs(songs), songIDs(extra))
	}
	if next != d.ReplState() {
		t.Fatalf("next = %v, frontier = %v", next, d.ReplState())
	}
	// A limit pages the batch.
	page, mid := d.SongsFrom(pos, 2)
	if len(page) != 2 || mid.Seq != pos.Seq+2 {
		t.Fatalf("limited read: %d songs, next %v", len(page), mid)
	}
	// Caught up: empty read, same position.
	songs, next2 := d.SongsFrom(next, 100)
	if len(songs) != 0 || next2 != next {
		t.Fatalf("caught-up read: %d songs, next %v", len(songs), next2)
	}
}

// A position from another epoch, past the frontier, or negative is served
// from seq 0.
func TestSongsFromForeignPositionServesFromZero(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(24, 2, 0))
	if _, err := d.ApplySong(smallSongs(25, 1, 50)[0]); err != nil {
		t.Fatal(err)
	}
	front := d.ReplState()
	all := songIDs(shipAll(d))
	if len(all) != 3 {
		t.Fatalf("sequence holds %d songs, want 3", len(all))
	}
	for _, pos := range []ReplicationState{
		{Epoch: 0, Seq: 1},
		{Epoch: front.Epoch + 1, Seq: 1},
		{Epoch: front.Epoch, Seq: front.Seq + 1},
		{Epoch: front.Epoch, Seq: -1},
	} {
		songs, next := d.SongsFrom(pos, 100)
		if !reflect.DeepEqual(songIDs(songs), all) || next != front {
			t.Errorf("from %v: shipped %v to %v, want %v to %v", pos, songIDs(songs), next, all, front)
		}
	}
}

// The sequence is arrival order, not id order, and a compaction and a
// restart both keep it: a position means the same songs before and after.
func TestSequenceIsArrivalOrder(t *testing.T) {
	base := smallSongs(26, 3, 0)
	base[0].ID, base[2].ID = 9, 0 // build order 9, 1, 0
	adds := smallSongs(27, 3, 0)
	for i, id := range []int64{100, 50, 75} {
		adds[i].ID = id
	}
	want := []int64{9, 1, 0, 100, 50, 75}

	dir := t.TempDir()
	d, err := OpenDurable(dir, durableTestOptions(store.OS(), base))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range adds {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	front := d.ReplState()
	check := func(stage string, d *Durable) {
		t.Helper()
		if got := songIDs(shipAll(d)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sequence %v, want %v", stage, got, want)
		}
		if got := d.ReplState(); got != front {
			t.Fatalf("%s: frontier %v, want %v", stage, got, front)
		}
	}
	check("after adds", d)
	d.abandon() // crash: the adds are only in the WAL
	d, err = OpenDurable(dir, durableTestOptions(store.OS(), nil))
	if err != nil {
		t.Fatal(err)
	}
	check("after WAL replay", d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	check("after compaction", d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	check("after restart", openReplDurable(t, dir, nil))
}

// applyShipped applies every shipped song to follower and counts those it
// reported as new.
func applyShipped(t *testing.T, follower *Durable, shipped []music.Song) (applied int) {
	t.Helper()
	for i, s := range shipped {
		ok, err := follower.ApplySong(s)
		if err != nil {
			t.Fatalf("song %d: %v", i, err)
		}
		if ok {
			applied++
		}
	}
	return applied
}

// A segment shipped from a follower's position applies whole, and
// replaying the same segment is a no-op, asserted by corpus digest.
func TestApplyReplicatedDoubleReplayIsNoOp(t *testing.T) {
	primary := openReplDurable(t, t.TempDir(), smallSongs(27, 2, 0))
	follower := openReplDurable(t, t.TempDir(), smallSongs(27, 2, 0))

	pos := primary.ReplState()
	for _, s := range smallSongs(28, 4, 200) {
		if _, err := primary.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	shipped, _ := primary.SongsFrom(pos, 100)
	if len(shipped) != 4 {
		t.Fatalf("shipped %d songs from the follower's position, want 4", len(shipped))
	}

	if got := applyShipped(t, follower, shipped); got != 4 {
		t.Fatalf("first replay applied %d songs, want 4", got)
	}
	if follower.Digest() != primary.Digest() {
		t.Fatal("follower digest differs after first replay")
	}
	digest, phrases := follower.Digest(), follower.NumPhrases()
	if got := applyShipped(t, follower, shipped); got != 0 {
		t.Fatalf("double replay re-applied %d songs", got)
	}
	if follower.Digest() != digest {
		t.Fatal("double replay changed the corpus digest")
	}
	if follower.NumPhrases() != phrases {
		t.Fatalf("double replay changed phrase count %d -> %d", phrases, follower.NumPhrases())
	}
}

// A follower holding only the base corpus, shipped the primary's whole
// sequence after a compaction, applies only the songs it lacks; shipping
// the sequence again applies nothing.
func TestApplySnapshotCatchesUpMissingSongsOnly(t *testing.T) {
	primary := openReplDurable(t, t.TempDir(), smallSongs(29, 3, 0))
	for _, s := range smallSongs(30, 3, 300) {
		if _, err := primary.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	follower := openReplDurable(t, t.TempDir(), smallSongs(29, 3, 0))

	shipped := shipAll(primary)
	if len(shipped) != 6 {
		t.Fatalf("shipped %d songs from the zero position, want all 6", len(shipped))
	}
	if got := applyShipped(t, follower, shipped); got != 3 {
		t.Fatalf("catch-up applied %d songs, want 3 (the missing ones)", got)
	}
	if follower.Digest() != primary.Digest() {
		t.Fatal("digests differ after catch-up")
	}
	if got := applyShipped(t, follower, shipAll(primary)); got != 0 {
		t.Fatalf("re-shipped sequence applied %d songs, want 0", got)
	}
}

func TestDurableNotifyWakesOnCommit(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(31, 2, 0))
	ch := d.DurableNotify()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := d.ApplySong(smallSongs(32, 1, 40)[0]); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("notify channel not closed after a durable commit")
	}
	<-done
}

func TestFollowerDurableAcrossRestart(t *testing.T) {
	// A follower that applied shipped songs durably must still hold them
	// after a restart from its own data directory — this is what makes
	// promotion safe.
	primary := openReplDurable(t, t.TempDir(), smallSongs(33, 2, 0))
	followerDir := t.TempDir()
	// Opened without a Close cleanup: this one "crashes" via abandon.
	follower, err := OpenDurable(followerDir, durableTestOptions(store.OS(), smallSongs(33, 2, 0)))
	if err != nil {
		t.Fatal(err)
	}

	pos := primary.ReplState()
	for _, s := range smallSongs(34, 3, 500) {
		if _, err := primary.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	songs, _ := primary.SongsFrom(pos, 100)
	for _, s := range songs {
		if _, err := follower.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	want := follower.Digest()
	follower.abandon() // crash, not Close: no graceful compaction

	reopened := openReplDurable(t, followerDir, nil)
	if reopened.Digest() != want {
		t.Fatal("replicated writes lost across follower crash-restart")
	}
}
