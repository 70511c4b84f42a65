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
// the coordinator's write path) and one wire format, the EncodeExport
// container, deliberately resumable and idempotent at every step: any
// request can be retried, any batch re-shipped, any import re-sent.
package replica

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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
	// PathWAL (GET) returns the durable songs of the primary's sequence
	// from ?from=epoch:seq as an EncodeExport body, long-polling up to
	// ?wait= milliseconds when the follower is caught up; PositionHeader
	// carries the position after them. The request's from doubles as the
	// follower's durable ack watermark; ?follower= names the puller.
	PathWAL = "/replica/wal"
	// PathPromote (POST) switches a follower to primary duty.
	PathPromote = "/replica/promote"
	// PathImport (POST, EncodeExport body) applies songs id-preservingly
	// and idempotently: the coordinator's write path. Role-gated like any
	// write: the import lands on the primary and ships to its followers
	// like any other song.
	PathImport = "/replica/import"
)

// exportKind is the container kind of PathImport and PathWAL bodies.
const exportKind = "replica/export"

// EncodeExport serializes songs as a PathImport or PathWAL body: a store
// container holding one gob-encoded "songs" section.
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

// decodeExport reads an EncodeExport body.
func decodeExport(r io.Reader) ([]music.Song, error) {
	kind, sections, err := store.ReadContainer(r)
	if err != nil {
		return nil, fmt.Errorf("bad export container: %w", err)
	}
	if kind != exportKind {
		return nil, fmt.Errorf("wrong container kind %q", kind)
	}
	var songs []music.Song
	for _, sec := range sections {
		if sec.Name != "songs" {
			continue
		}
		if err := gob.NewDecoder(bytes.NewReader(sec.Data)).Decode(&songs); err != nil {
			return nil, fmt.Errorf("bad songs section: %w", err)
		}
	}
	return songs, nil
}

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

// Tunables with package-wide defaults; NodeConfig zero values select
// these.
const (
	// DefaultPollWait is the server-side long-poll ceiling for PathWAL.
	DefaultPollWait = 10 * time.Second
	// DefaultSyncTimeout bounds how long a semi-sync write waits for its
	// follower quorum before returning ErrNotReplicated.
	DefaultSyncTimeout = 5 * time.Second
)

// maxBatchSongs bounds the songs of one PathWAL response.
const maxBatchSongs = 256
