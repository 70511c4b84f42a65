// Package replica turns single-node durable QBH systems into replicated
// shard groups. Each group has one primary and any number of followers:
//
//   - The primary is an ordinary qbh.Durable — writes are acknowledged
//     after the group-committed WAL fsync — that additionally serves its
//     durability artifacts over HTTP: the checksummed snapshot container
//     and offset-addressed WAL records (store.WALRecord framing).
//   - Followers pull: a long-polling tail of the primary's WAL, applied
//     idempotently (by song id) into the follower's own durable store, so
//     a follower is itself crash-safe and can be promoted. A follower
//     whose position is gone — the primary compacted past it, or the
//     follower is brand new — re-syncs from the snapshot and resumes
//     tailing from the position the snapshot reports.
//   - Each pull carries the follower's durably-applied position; the
//     primary keeps these ack watermarks, and with MinSyncFollowers > 0 a
//     write is only acknowledged to the client once enough followers have
//     that position (semi-synchronous replication) — the mode under which
//     killing the primary provably loses no acknowledged write, because a
//     promotable follower always holds it.
//
// Followers serve read traffic with the same query endpoints as the
// primary; only writes are role-gated (ErrNotPrimary). The whole protocol
// is four HTTP endpoints (PathState, PathWAL, PathSnapshot, PathPromote),
// deliberately resumable and idempotent at every step: any request can be
// retried, any segment can be re-shipped, any snapshot re-applied.
package replica

import (
	"errors"
	"time"

	"warping/internal/store"
)

// Role is a node's current duty in its shard group. A follower can be
// promoted at runtime; a primary never demotes (restart it as a follower
// instead — its durable state carries over).
type Role string

const (
	RolePrimary  Role = "primary"
	RoleFollower Role = "follower"
)

// Replication protocol endpoints, mounted next to the public query API.
const (
	// PathState (GET) reports role, group, position and corpus digest.
	PathState = "/replica/state"
	// PathWAL (GET) returns durable WAL records from ?pos=epoch:offset,
	// long-polling up to ?wait= when the follower is caught up. The
	// request's pos doubles as the follower's durable ack watermark;
	// ?follower= names the puller.
	PathWAL = "/replica/wal"
	// PathSnapshot (GET) streams the snapshot container; the
	// PositionHeader carries the epoch:offset to resume tailing from.
	PathSnapshot = "/replica/snapshot"
	// PathPromote (POST) switches a follower to primary duty.
	PathPromote = "/replica/promote"
)

// PositionHeader carries an "epoch:offset" replication position on
// snapshot responses.
const PositionHeader = "X-Qbh-Replica-Position"

// ErrNotPrimary marks a write sent to a node that is not its group's
// unfenced primary: the client must route it to the primary (the server
// maps this to 421). Every error that wraps it is a *NotPrimaryError.
var ErrNotPrimary = errors.New("replica: not the primary")

// NotPrimaryError is a refused write that may know where the write
// belongs: the server puts Primary in the 421's Location header, so a
// misdirected client reroutes without fetching a membership view.
type NotPrimaryError struct {
	// Primary is the base URL of the group's primary as the refusing node
	// knows it — a follower's pull target; empty on a fenced primary.
	Primary string
	reason  string
}

func (e *NotPrimaryError) Error() string { return ErrNotPrimary.Error() + ": " + e.reason }
func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// ErrNotReplicated marks a write that is durable on the primary but was
// not confirmed by the configured number of followers within the sync
// timeout. The write exists locally and will ship when followers catch
// up, but it is NOT acknowledged: after a primary failure plus promotion
// it may be lost, so callers must surface the failure (the server maps
// this to 503).
var ErrNotReplicated = errors.New("replica: write not confirmed by follower quorum")

// Status is a node's standing in its group: role, fencing state and
// replication position — the primary's own frontier, or the follower's
// durably-applied position in the primary's stream.
type Status struct {
	Group string `json:"group"`
	Role  Role   `json:"role"`
	// Fenced marks a deposed primary refusing writes (see ObserveView in
	// membership.go).
	Fenced bool  `json:"fenced,omitempty"`
	Epoch  int64 `json:"epoch"`
	Offset int64 `json:"offset"`
}

// StateResponse is the PathState payload.
type StateResponse struct {
	Status
	Songs int `json:"songs"`
	// Digest fingerprints the song corpus (hex); equal digests mean
	// identical replicas.
	Digest string `json:"digest"`
	// Followers is the number of followers with a recorded ack watermark
	// (primary only).
	Followers int `json:"followers,omitempty"`
}

// ReplicationStats is the /stats "replication" section.
type ReplicationStats struct {
	Status
	// AckWatermarks maps follower id to its confirmed "epoch:offset"
	// position in the primary's WAL stream — what failover elects by.
	AckWatermarks map[string]string `json:"ack_watermarks,omitempty"`
}

// WALResponse is the PathWAL payload. SnapshotNeeded tells the follower
// its position is from a dead log generation: fetch PathSnapshot, apply,
// resume from the position the snapshot reports.
type WALResponse struct {
	Epoch          int64             `json:"epoch"`
	Records        []store.WALRecord `json:"records,omitempty"`
	NextOffset     int64             `json:"next_offset"`
	SnapshotNeeded bool              `json:"snapshot_needed,omitempty"`
}

// Tunables with package-wide defaults; NodeConfig zero values select
// these.
const (
	// DefaultPollWait is the server-side long-poll ceiling for PathWAL.
	DefaultPollWait = 10 * time.Second
	// DefaultSyncTimeout bounds how long a semi-sync write waits for its
	// follower quorum before returning ErrNotReplicated.
	DefaultSyncTimeout = 5 * time.Second
)

// maxBatchBytes bounds one shipped WAL batch's payload.
const maxBatchBytes = 4 << 20
