package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"warping/internal/qbh"
	"warping/internal/retry"
	"warping/internal/store"
)

// PositionFileName persists a follower's durably-applied position in the
// primary's stream ("epoch:offset"), inside the follower's data dir. It
// is written only after the records up to it are applied through the
// follower's own durable store, so a restart can only under-report —
// which re-ships records that replay as no-ops.
const PositionFileName = "replica.pos"

func loadPosition(d *qbh.Durable) (qbh.ReplicationState, error) {
	data, err := readFile(d.FS(), filepath.Join(d.Dir(), PositionFileName))
	if os.IsNotExist(err) {
		// No position yet: the zero position is from epoch 0, which no
		// primary ever serves (epochs start at 1), so the first pull
		// answers SnapshotNeeded and the follower full-syncs.
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

func (n *Node) savePosition(pos qbh.ReplicationState) error {
	path := filepath.Join(n.Dir(), PositionFileName)
	if err := store.WriteFileAtomic(n.FS(), path, []byte(pos.String())); err != nil {
		return fmt.Errorf("replica: persist position: %w", err)
	}
	n.mu.Lock()
	n.pos = pos
	n.mu.Unlock()
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
			n.cfg.Logf("replica: pull from %s failed (attempt %d): %v", n.cfg.PrimaryURL, attempt, err)
			if err := retry.Sleep(ctx, n.cfg.Backoff.Delay(attempt)); err != nil {
				return
			}
			continue
		}
		attempt = 0
	}
}

// pullOnce performs one long-poll round trip: fetch records (or learn a
// snapshot is needed), apply them durably, persist the new position.
// Invariant: Position trails the corpus. A record is visible to queries
// (and moves Digest) from its memory add, before its fsync; the position
// advances only after every record of the batch is durable here, because
// it is what the next pull reports to the primary as this follower's ack.
// A reader that sees converged digests may still see the old position.
func (n *Node) pullOnce(ctx context.Context) error {
	pos := n.Position()
	wait := n.cfg.PollWait
	url := fmt.Sprintf("%s%s?pos=%s&wait=%d&follower=%s",
		n.cfg.PrimaryURL, PathWAL, pos.String(), wait.Milliseconds(), n.cfg.FollowerID)
	// The request deadline leaves the server's long-poll room to expire
	// on its own; anything slower than that is a stuck connection.
	rctx, cancel := context.WithTimeout(ctx, wait+DefaultSyncTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: primary returned %s", resp.Status)
	}
	var wr WALResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return fmt.Errorf("replica: decode wal response: %w", err)
	}
	if wr.SnapshotNeeded {
		return n.syncFromSnapshot(ctx)
	}
	for _, rec := range wr.Records {
		if _, err := n.ApplyReplicated(rec.Payload); err != nil {
			return fmt.Errorf("replica: apply record at %d: %w", rec.Offset, err)
		}
	}
	next := qbh.ReplicationState{Epoch: wr.Epoch, Offset: wr.NextOffset}
	if next != pos {
		return n.savePosition(next)
	}
	return nil
}

// syncFromSnapshot re-bases the follower on the primary's snapshot: apply
// any songs it is missing (idempotent, concurrent with reads) and resume
// tailing from the position the snapshot reports.
func (n *Node) syncFromSnapshot(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.cfg.PrimaryURL+PathSnapshot, nil)
	if err != nil {
		return err
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot fetch returned %s", resp.Status)
	}
	pos, err := qbh.ParseReplicationState(resp.Header.Get(PositionHeader))
	if err != nil {
		return fmt.Errorf("replica: snapshot position header: %w", err)
	}
	applied, err := n.ApplySnapshot(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: apply snapshot: %w", err)
	}
	n.cfg.Logf("replica: snapshot sync applied %d songs, resuming at %v", applied, pos)
	return n.savePosition(pos)
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

// BootstrapFromPrimary prepares a fresh follower data directory: it
// downloads the primary's snapshot container into place and records the
// position to resume from, so a subsequent OpenDurable (which refuses an
// empty corpus) starts with the primary's songs. A directory that already
// has a snapshot is left alone.
func BootstrapFromPrimary(fsys store.FS, dir, primaryURL string, client *http.Client) error {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := fsys.Stat(filepath.Join(dir, qbh.SnapshotFileName)); err == nil {
		return nil
	}
	resp, err := client.Get(primaryURL + PathSnapshot)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: bootstrap snapshot returned %s", resp.Status)
	}
	pos, err := qbh.ParseReplicationState(resp.Header.Get(PositionHeader))
	if err != nil {
		return fmt.Errorf("replica: bootstrap position header: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: bootstrap read snapshot: %w", err)
	}
	if err := store.WriteFileAtomic(fsys, filepath.Join(dir, qbh.SnapshotFileName), data); err != nil {
		return err
	}
	return store.WriteFileAtomic(fsys, filepath.Join(dir, PositionFileName), []byte(pos.String()))
}
