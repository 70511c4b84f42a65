// Package replica turns single-node durable QBH systems into replicated
// shard groups. Each group has one primary and any number of followers:
//
//   - The primary is an ordinary qbh.Durable — writes are acknowledged
//     after the group-committed WAL fsync — that additionally serves its
//     song sequence over HTTP: the songs in the order they were added,
//     addressed by (epoch, seq), shipped from memory once they are
//     durable. Its WAL and snapshot are local durability only.
//   - Followers pull: a long-polling tail of the primary's sequence, each
//     song applied idempotently (by song id) into the follower's own
//     durable store, so a follower is itself crash-safe and can be
//     promoted. A position the primary cannot serve — another epoch, past
//     its frontier, or a brand-new follower's zero position — is served
//     from seq 0; the follower skips the songs it holds and converges on
//     the union.
//   - Each pull carries the follower's durably-applied position; the
//     primary keeps these ack watermarks, and with MinSyncFollowers > 0 a
//     write is only acknowledged to the client once enough followers have
//     that position (semi-synchronous replication) — the mode under which
//     killing the primary provably loses no acknowledged write, because a
//     promotable follower always holds it.
//
// Followers serve read traffic with the same query endpoints as the
// primary; only writes are role-gated (ErrNotPrimary). The whole protocol
// is four HTTP endpoints (PathState, PathWAL, PathPromote and PathImport,
// the coordinator's write path) and one wire format, a run of song records
// (qbh.EncodeSongs) — the records the WAL and the snapshot hold —
// deliberately resumable and idempotent at every step: any request can be
// retried, any batch re-shipped, any import re-sent.
package replica

import (
	"errors"
	"time"
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
	// PathWAL (GET) returns the durable songs of the primary's sequence
	// from ?from=epoch:seq as a qbh.EncodeSongs body, long-polling up to
	// ?wait= milliseconds when the follower is caught up; PositionHeader
	// carries the position after them. The request's from doubles as the
	// follower's durable ack watermark; ?follower= names the puller.
	PathWAL = "/replica/wal"
	// PathPromote (POST) switches a follower to primary duty.
	PathPromote = "/replica/promote"
	// PathImport (POST, qbh.EncodeSongs body) applies songs id-preservingly
	// and idempotently: the coordinator's write path. Role-gated like any
	// write: the import lands on the primary and ships to its followers
	// like any other song.
	PathImport = "/replica/import"
)

// PositionHeader carries the "epoch:seq" position after the songs of a
// PathWAL response.
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
// in the primary's sequence.
type Status struct {
	Group string `json:"group"`
	Role  Role   `json:"role"`
	Epoch int64  `json:"epoch"`
	Seq   int64  `json:"seq"`
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
	// AckWatermarks maps follower id to its confirmed "epoch:seq"
	// position in the primary's sequence.
	AckWatermarks map[string]string `json:"ack_watermarks,omitempty"`
}

// Replication timing.
const (
	// DefaultPollWait is the server-side long-poll ceiling for PathWAL.
	DefaultPollWait = 10 * time.Second
	// DefaultSyncTimeout bounds how long a semi-sync write waits for its
	// follower quorum before returning ErrNotReplicated.
	DefaultSyncTimeout = 5 * time.Second
)

// maxBatchSongs bounds the songs of one PathWAL response.
const maxBatchSongs = 256
