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
// is five HTTP endpoints (PathState, PathWAL, PathSnapshot, PathPromote and
// PathImport, the coordinator's write path), deliberately resumable and
// idempotent at every step: any request can be retried, any segment can be
// re-shipped, any snapshot re-applied, any import re-sent.
package replica

import (
	"bytes"
	"encoding/gob"
	"errors"
	"time"

	"warping/internal/music"
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
	// PathImport (POST, EncodeExport body) applies songs id-preservingly
	// and idempotently: the coordinator's write path. Role-gated like any
	// write: the import lands on the primary and replicates to its
	// followers through the ordinary WAL.
	PathImport = "/replica/import"
)

// exportKind is the container kind of a PathImport body.
const exportKind = "replica/export"

// EncodeExport serializes songs as a PathImport body: a store container
// holding one gob-encoded "songs" section.
func EncodeExport(songs []music.Song) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(songs); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := store.WriteContainer(&out, exportKind, []store.Section{{Name: "songs", Data: payload.Bytes()}}); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// PositionHeader carries an "epoch:offset" replication position on
// snapshot responses.
const PositionHeader = "X-Qbh-Replica-Position"

// ErrNotPrimary marks a write sent to a node that is not its group's
// primary: the client must route it to the primary (the server maps this
// to 421). Every error that wraps it is a *NotPrimaryError.
var ErrNotPrimary = errors.New("replica: not the primary")

// NotPrimaryError is a refused write that knows where the write belongs:
// the server puts Primary in the 421's Location header, so a misdirected
// client reroutes at once.
type NotPrimaryError struct {
	// Primary is the base URL of the group's primary as the refusing
	// follower knows it: its pull target.
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

// Status is a node's standing in its group: role and replication position
// — the primary's own frontier, or the follower's durably-applied position
// in the primary's stream.
type Status struct {
	Group  string `json:"group"`
	Role   Role   `json:"role"`
	Epoch  int64  `json:"epoch"`
	Offset int64  `json:"offset"`
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
