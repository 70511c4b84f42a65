package replica

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/retry"
	"warping/internal/store"
)

// PositionFileName persists a follower's durably-applied position in the
// primary's sequence ("epoch:seq"), inside the follower's data dir. It
// is written only after the songs up to it are applied through the
// follower's own durable store, so a restart can only under-report —
// which re-ships songs that apply as no-ops. The byte-offset positions of
// earlier versions lived in "replica.pos", which is never read: an
// upgraded follower starts from the zero position.
const PositionFileName = "replica.seq"

func loadPosition(d *qbh.Durable) (qbh.ReplicationState, error) {
	data, err := readFile(d.FS(), filepath.Join(d.Dir(), PositionFileName))
	if os.IsNotExist(err) {
		// No position yet: the zero position, which every primary serves
		// from seq 0 (epochs start at 1).
		return qbh.ReplicationState{}, nil
	}
	if err != nil {
		return qbh.ReplicationState{}, fmt.Errorf("replica: read position: %w", err)
	}
	pos, err := qbh.ParseReplicationState(strings.TrimSpace(string(data)))
	if err != nil {
		return qbh.ReplicationState{}, fmt.Errorf("replica: corrupt position file: %w", err)
	}
	return pos, nil
}

func writePosition(fsys store.FS, dir string, pos qbh.ReplicationState) error {
	if err := store.WriteFileAtomic(fsys, filepath.Join(dir, PositionFileName), []byte(pos.String())); err != nil {
		return fmt.Errorf("replica: persist position: %w", err)
	}
	return nil
}

func readFile(fsys store.FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// pullLoop tails the primary until Stop. Errors back off with jitter and
// the loop keeps trying: a dead primary is indistinguishable from a slow
// one, and the follower keeps serving reads either way.
func (n *Node) pullLoop() {
	defer close(n.done)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-n.stop
		cancel()
	}()
	attempt := 0
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		if err := n.pullOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			attempt++
			log.Printf("replica: pull from %s failed (attempt %d): %v", n.cfg.PrimaryURL, attempt, err)
			if err := retry.Sleep(ctx, retry.Delay(attempt)); err != nil {
				return
			}
			continue
		}
		attempt = 0
	}
}

// pullOnce performs one long-poll round trip: fetch songs, apply them
// durably, persist the new position.
// Invariant: Position trails the corpus. A song is visible to queries
// (and moves Digest) from its memory add, before its fsync; the position
// advances only after every song of the batch is durable here, because
// it is what the next pull reports to the primary as this follower's ack.
// A reader that sees converged digests may still see the old position.
func (n *Node) pullOnce(ctx context.Context) error {
	pos := n.Position()
	// The request deadline leaves the server's long-poll room to expire
	// on its own; anything slower than that is a stuck connection.
	rctx, cancel := context.WithTimeout(ctx, DefaultPollWait+DefaultSyncTimeout)
	defer cancel()
	songs, next, err := pull(rctx, n.cfg.PrimaryURL, pos, DefaultPollWait, n.Dir())
	if err != nil {
		return err
	}
	for _, song := range songs {
		if _, err := n.ApplySong(song); err != nil {
			return fmt.Errorf("replica: apply song %d: %w", song.ID, err)
		}
	}
	if next == pos {
		return nil
	}
	if err := writePosition(n.FS(), n.Dir(), next); err != nil {
		return err
	}
	n.mu.Lock()
	n.pos = next
	n.mu.Unlock()
	return nil
}

// pull asks the primary at primaryURL for the songs of its sequence after
// pos, long-polling up to wait, on behalf of follower (empty: record no
// ack). It returns them with the position after them. The request goes
// through http.DefaultClient, bounded by ctx alone.
func pull(ctx context.Context, primaryURL string, pos qbh.ReplicationState, wait time.Duration, follower string) ([]music.Song, qbh.ReplicationState, error) {
	q := url.Values{"from": {pos.String()}, "wait": {strconv.FormatInt(wait.Milliseconds(), 10)}}
	if follower != "" {
		q.Set("follower", follower)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primaryURL+PathWAL+"?"+q.Encode(), nil)
	if err != nil {
		return nil, qbh.ReplicationState{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, qbh.ReplicationState{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, qbh.ReplicationState{}, fmt.Errorf("replica: primary returned %s", resp.Status)
	}
	next, err := qbh.ParseReplicationState(resp.Header.Get(PositionHeader))
	if err != nil {
		return nil, qbh.ReplicationState{}, fmt.Errorf("replica: position header: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, qbh.ReplicationState{}, fmt.Errorf("replica: reading batch: %w", err)
	}
	songs, err := qbh.DecodeSongs(body)
	if err != nil {
		return nil, qbh.ReplicationState{}, fmt.Errorf("replica: %w", err)
	}
	return songs, next, nil
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

// BootstrapFromPrimary prepares a fresh follower data directory: it pulls
// the primary's whole sequence from the zero position without waiting,
// records the position after it, and returns the songs — the caller
// builds the follower's first database from them with its own options
// (OpenDurable refuses a directory with no snapshot and no builder). A
// directory that already has a snapshot is left alone: no songs, no error.
func BootstrapFromPrimary(dir, primaryURL string) ([]music.Song, error) {
	fsys := store.OS()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := fsys.Stat(filepath.Join(dir, qbh.SnapshotFileName)); err == nil {
		return nil, nil
	}
	var songs []music.Song
	seen := make(map[int64]bool)
	var pos qbh.ReplicationState
	for {
		// One batch, served without waiting, within two minutes.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		batch, next, err := pull(ctx, primaryURL, pos, 0, "")
		cancel()
		if err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
		pos = next
		if len(batch) == 0 {
			break
		}
		// A promotion between two pulls re-serves the sequence from seq 0.
		for _, s := range batch {
			if !seen[s.ID] {
				seen[s.ID] = true
				songs = append(songs, s)
			}
		}
	}
	return songs, writePosition(fsys, dir, pos)
}
