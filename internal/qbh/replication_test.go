package qbh

import (
	"bytes"
	"errors"
	"io"
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

func TestEpochAdvancesPerSnapshotAndPersists(t *testing.T) {
	dir := t.TempDir()
	d := openReplDurable(t, dir, smallSongs(21, 3, 0))
	// OpenDurable on a fresh dir writes the initial snapshot: epoch >= 1.
	e0 := d.Epoch()
	if e0 < 1 {
		t.Fatalf("fresh open at epoch %d, want >= 1", e0)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.Epoch(); got != e0+1 {
		t.Fatalf("epoch after snapshot = %d, want %d", got, e0+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the epoch must never regress (followers rely on monotonic
	// generations to invalidate stale offsets).
	d2 := openReplDurable(t, dir, nil)
	if got := d2.Epoch(); got < e0+1 {
		t.Fatalf("epoch regressed across restart: %d < %d", got, e0+1)
	}
}

func TestWALRecordsFromShipsAckedWrites(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(22, 2, 0))
	pos := d.ReplState()

	extra := smallSongs(23, 3, 100)
	for _, s := range extra {
		if _, err := d.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	recs, next, err := d.WALRecordsFrom(pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(extra) {
		t.Fatalf("shipped %d records, want %d", len(recs), len(extra))
	}
	for i, r := range recs {
		e, err := decodeWALEntry(r.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if e.Song.ID != extra[i].ID {
			t.Fatalf("record %d carries song %d, want %d", i, e.Song.ID, extra[i].ID)
		}
	}
	if next != d.ReplState() {
		t.Fatalf("next = %v, frontier = %v", next, d.ReplState())
	}
	// Caught up: empty read, same position.
	recs, next2, err := d.WALRecordsFrom(next, 0)
	if err != nil || len(recs) != 0 || next2 != next {
		t.Fatalf("caught-up read: %d recs, next %v, err %v", len(recs), next2, err)
	}
}

func TestWALRecordsFromStaleEpochNeedsSnapshot(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(24, 2, 0))
	pos := d.ReplState()
	if _, err := d.ApplySong(smallSongs(25, 1, 50)[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil { // bumps epoch, resets WAL
		t.Fatal(err)
	}
	if _, _, err := d.WALRecordsFrom(pos, 0); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("stale-epoch read: err = %v, want ErrSnapshotNeeded", err)
	}
}

func TestOpenSnapshotPositionConsistent(t *testing.T) {
	d := openReplDurable(t, t.TempDir(), smallSongs(26, 3, 0))
	rc, pos, size, err := d.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if pos.Epoch != d.Epoch() || pos.Offset != store.WALStartOffset {
		t.Fatalf("snapshot position %v, want epoch %d offset %d", pos, d.Epoch(), store.WALStartOffset)
	}
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != size {
		t.Fatalf("read %d bytes, header said %d", len(data), size)
	}
	// The shipped container loads into an identical corpus.
	sys, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Digest() != d.Digest() {
		t.Fatal("shipped snapshot digest differs from live corpus")
	}
}

func TestApplyReplicatedDoubleReplayIsNoOp(t *testing.T) {
	primary := openReplDurable(t, t.TempDir(), smallSongs(27, 2, 0))
	follower := openReplDurable(t, t.TempDir(), smallSongs(27, 2, 0))

	pos := primary.ReplState()
	for _, s := range smallSongs(28, 4, 200) {
		if _, err := primary.ApplySong(s); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := primary.WALRecordsFrom(pos, 0)
	if err != nil {
		t.Fatal(err)
	}

	// First consumption: every record applies.
	for i, r := range recs {
		applied, err := follower.ApplyReplicated(r.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !applied {
			t.Fatalf("record %d: fresh record reported as duplicate", i)
		}
	}
	if follower.Digest() != primary.Digest() {
		t.Fatal("follower digest differs after first replay")
	}
	digest := follower.Digest()
	phrases := follower.NumPhrases()

	// Second consumption of the same segment — the satellite invariant:
	// double-replay must be a no-op, asserted by corpus digest.
	for i, r := range recs {
		applied, err := follower.ApplyReplicated(r.Payload)
		if err != nil {
			t.Fatalf("double-replay record %d: %v", i, err)
		}
		if applied {
			t.Fatalf("double-replay record %d re-applied", i)
		}
	}
	if follower.Digest() != digest {
		t.Fatal("double-replay changed the corpus digest")
	}
	if follower.NumPhrases() != phrases {
		t.Fatalf("double-replay changed phrase count %d -> %d", phrases, follower.NumPhrases())
	}
}

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
	// Follower holds only the base corpus.
	follower := openReplDurable(t, t.TempDir(), smallSongs(29, 3, 0))

	rc, _, _, err := primary.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	applied, err := follower.ApplySnapshot(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("snapshot applied %d songs, want 3 (the missing ones)", applied)
	}
	if follower.Digest() != primary.Digest() {
		t.Fatal("digests differ after snapshot catch-up")
	}
	// Applying the same snapshot again is a no-op.
	rc2, _, _, err := primary.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	applied, err = follower.ApplySnapshot(rc2)
	rc2.Close()
	if err != nil || applied != 0 {
		t.Fatalf("re-applied snapshot: %d songs, err %v; want 0, nil", applied, err)
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
	// A follower that applied replicated records durably must still hold
	// them after a restart from its own data directory — this is what
	// makes promotion safe.
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
	recs, _, err := primary.WALRecordsFrom(pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := follower.ApplyReplicated(r.Payload); err != nil {
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
