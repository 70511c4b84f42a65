package replica

import (
	"fmt"
	"log"
	"sync"
	"time"

	"warping/internal/music"
	"warping/internal/qbh"
)

// NodeConfig configures one replica node. A follower names itself in its
// primary's ack watermarks by its data directory.
type NodeConfig struct {
	// Group names the shard group this node belongs to (monitoring only;
	// the data placement is decided by the coordinator's group map).
	Group string
	// Role is the starting role (default RolePrimary). A follower
	// additionally needs PrimaryURL.
	Role Role
	// PrimaryURL is the base URL of the group primary (follower only).
	PrimaryURL string
	// MinSyncFollowers > 0 makes writes semi-synchronous: a write is
	// acknowledged only once this many followers have durably applied it.
	// 0 (default) acknowledges after the local group-committed fsync and
	// ships asynchronously.
	MinSyncFollowers int
}

// Node is one member of a replicated shard group: a durable QBH system
// plus the replication machinery for its current role. It embeds the
// Durable, so it serves the full query surface (and implements the
// server's Backend interface); writes are role-gated. mu is never held
// across a call into the Durable.
type Node struct {
	*qbh.Durable
	cfg NodeConfig
	// syncTimeout bounds the semi-sync quorum wait: DefaultSyncTimeout,
	// shortened by the package's tests.
	syncTimeout time.Duration

	mu   sync.Mutex
	role Role
	// acks maps follower id -> the position that follower has durably
	// applied (primary side). ackCh is closed and replaced whenever acks
	// advance; semi-sync writes wait on it.
	acks  map[string]qbh.ReplicationState
	ackCh chan struct{}
	// pos is the follower's durably-applied position in the primary's
	// sequence, persisted in the data directory across restarts.
	pos qbh.ReplicationState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewNode wraps an open Durable for replication duty. A follower starts
// its pull loop immediately; call Stop (or Close) to end it.
func NewNode(d *qbh.Durable, cfg NodeConfig) (*Node, error) {
	if cfg.Role == "" {
		cfg.Role = RolePrimary
	}
	n := &Node{
		Durable:     d,
		cfg:         cfg,
		syncTimeout: DefaultSyncTimeout,
		role:        cfg.Role,
		acks:        make(map[string]qbh.ReplicationState),
		ackCh:       make(chan struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	switch cfg.Role {
	case RolePrimary:
		close(n.done) // no background loop to wait for
	case RoleFollower:
		if cfg.PrimaryURL == "" {
			return nil, fmt.Errorf("replica: follower needs a primary URL")
		}
		pos, err := loadPosition(d)
		if err != nil {
			return nil, err
		}
		n.pos = pos
		go n.pullLoop()
	default:
		return nil, fmt.Errorf("replica: unknown role %q", cfg.Role)
	}
	return n, nil
}

// Position reports the follower's durably-applied position (zero for a
// primary, whose position is its own ReplState frontier).
func (n *Node) Position() qbh.ReplicationState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pos
}

// Promote switches a follower to primary duty: the pull loop stops (any
// in-flight batch finishes applying first, so the promoted state is
// consistent), the durable store enters an epoch strictly after the old
// primary's — so a position the dead primary issued is never read against
// this node's sequence; a replica presenting one is served from seq 0 and
// converges on the union — and writes start being accepted. Promoting a
// primary is a no-op. The caller is responsible for making sure the old
// primary is actually gone (and for promoting the furthest-ahead
// follower: compare durable positions via PathState). Any
// other follower of the group keeps pulling from its PrimaryURL: restart it
// with the new primary's URL.
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.role == RolePrimary {
		n.mu.Unlock()
		return nil
	}
	pulled := n.pos
	n.mu.Unlock()
	n.stopPull()
	if err := n.Durable.PromoteEpoch(pulled.Epoch); err != nil {
		return fmt.Errorf("replica: promoting: %w", err)
	}
	n.mu.Lock()
	n.role = RolePrimary
	n.mu.Unlock()
	log.Printf("replica: promoted to primary at %v (group %q)", n.Durable.ReplState(), n.cfg.Group)
	return nil
}

// stopPull ends the follower loop and waits for it to drain.
func (n *Node) stopPull() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}

// Stop ends background replication work (follower pull loop). The
// underlying Durable stays open.
func (n *Node) Stop() { n.stopPull() }

// Close stops replication and closes the underlying durable store.
func (n *Node) Close() error {
	n.stopPull()
	return n.Durable.Close()
}

// writeGate refuses writes on followers as ErrNotPrimary (the server maps
// it to 421), naming the follower's pull target as the primary.
func (n *Node) writeGate() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RolePrimary {
		return &NotPrimaryError{Primary: n.cfg.PrimaryURL, reason: "writes go to the group primary"}
	}
	return nil
}

// AddSongTitled routes a client write: followers refuse (ErrNotPrimary),
// the primary ingests durably and — in semi-sync mode — waits for the
// follower quorum to confirm before acknowledging.
func (n *Node) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	if err := n.writeGate(); err != nil {
		return music.Song{}, err
	}
	song, err := n.Durable.AddSongTitled(title, melody)
	if err != nil {
		return music.Song{}, err
	}
	if err := n.waitQuorum(); err != nil {
		return music.Song{}, err
	}
	return song, nil
}

// waitQuorum blocks until MinSyncFollowers followers have durably applied
// everything up to the current frontier (which covers the caller's just-
// committed write), or the sync timeout passes. The frontier is re-read
// per wake-up: it can only advance, and waiting for "at least my write"
// is implied by waiting for any frontier at or past it.
func (n *Node) waitQuorum() error {
	need := n.cfg.MinSyncFollowers
	if need <= 0 {
		return nil
	}
	target := n.Durable.ReplState()
	deadline := time.Now().Add(n.syncTimeout)
	for {
		n.mu.Lock()
		got := 0
		for _, pos := range n.acks {
			if pos.AtLeast(target) {
				got++
			}
		}
		ch := n.ackCh
		n.mu.Unlock()
		if got >= need {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("%w: %d/%d followers confirmed %v within %v",
				ErrNotReplicated, got, need, target, n.syncTimeout)
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// recordAck stores a follower's durably-applied position and wakes
// semi-sync waiters. Within one epoch the watermark only advances; a
// position from another epoch replaces it.
func (n *Node) recordAck(follower string, pos qbh.ReplicationState) {
	if follower == "" {
		return
	}
	n.mu.Lock()
	if cur, ok := n.acks[follower]; !ok || !cur.AtLeast(pos) {
		n.acks[follower] = pos
		close(n.ackCh)
		n.ackCh = make(chan struct{})
	}
	n.mu.Unlock()
}

// status reports the node's standing together with what only a primary
// has: its followers' ack watermarks.
func (n *Node) status() (Status, map[string]string) {
	st := n.Durable.ReplState()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := Status{Group: n.cfg.Group, Role: n.role, Epoch: st.Epoch, Seq: st.Seq}
	if n.role != RolePrimary {
		// A follower's meaningful position is where it is in the
		// primary's sequence, not its own.
		out.Epoch, out.Seq = n.pos.Epoch, n.pos.Seq
	}
	acks := make(map[string]string, len(n.acks))
	for id, pos := range n.acks {
		acks[id] = pos.String()
	}
	return out, acks
}

// State assembles the PathState payload.
func (n *Node) State() StateResponse {
	st, acks := n.status()
	resp := StateResponse{Status: st, Songs: n.NumSongs(), Digest: fmt.Sprintf("%016x", n.Digest())}
	if st.Role == RolePrimary {
		resp.Followers = len(acks)
	}
	return resp
}

// Stats adds the "replication" section to the Durable's.
func (n *Node) Stats(add func(section string, v any)) {
	n.Durable.Stats(add)
	st, acks := n.status()
	add("replication", ReplicationStats{Status: st, AckWatermarks: acks})
}
