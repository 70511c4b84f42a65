// Package membership makes the replicated shard-group topology dynamic.
// It has three pieces, all built on one data structure — an epoch-versioned
// membership View that merges as a join-semilattice:
//
//   - Every replica heartbeats a NodeRecord (node id, group, role, WAL ack
//     watermark) to a tiny seed server (Registry), shipping its whole local
//     View and merging the Registry's reply back — push-pull gossip through
//     a star. Records merge by (incarnation, heartbeat-counter) dominance,
//     the ring and rebalance state by version dominance, so merge is
//     commutative, associative and idempotent: any exchange order converges
//     and a restarted seed repopulates from the first round of heartbeats.
//   - A Director watches the Registry's view: a primary whose heartbeat
//     counter stops advancing for K probe intervals is presumed dead, the
//     group's freshest follower — the one with the highest durably-applied
//     (epoch, offset) watermark, which under semi-sync acks is guaranteed
//     to hold every acknowledged write — is promoted through the existing
//     /replica/promote path. Followers pull from whichever primary the view
//     names, so the survivors follow the promotion on their next heartbeat.
//   - The View carries a versioned consistent-hash Ring that places songs
//     on groups. Changing the group set is a Rebalance: the new ring is
//     announced first (coordinators dual-route writes for moving keys while
//     it is pending), the moving songs are snapshot-shipped to their new
//     owners, and only then does the ring version bump — the atomic read
//     cutover.
//
// The package deliberately knows nothing about the replica or server
// packages (they import it, not vice versa); the HTTP paths it drives on
// replicas are its Default*Path constants, which the replica package pins
// with a compile-coupled test.
package membership

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Roles a NodeRecord can claim. They mirror replica.Role; membership keeps
// its own constants to stay import-free.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Protocol endpoints served by the Registry (seed server).
const (
	// PathHeartbeat (POST) receives a node's full local view and answers
	// with the merged view — one round of push-pull gossip.
	PathHeartbeat = "/membership/heartbeat"
	// PathView (GET) returns the registry's current merged view.
	PathView = "/membership/view"
	// PathGroups (POST) is the operator surface: {"op":"add"|"remove",
	// "group":name} starts a consistent-hash rebalance that migrates the
	// moving songs and then bumps the ring version.
	PathGroups = "/membership/groups"
)

// Default paths the Director and Rebalancer drive on replica nodes. The
// replica package pins these against its own constants in a test, so the
// two packages cannot drift apart silently.
const (
	DefaultPromotePath = "/replica/promote"
	DefaultExportPath  = "/replica/export"
	DefaultImportPath  = "/replica/import"
)

// Tunables with package-wide defaults.
const (
	// DefaultHeartbeatInterval paces the Agent's gossip rounds.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultMissedBeats is how many consecutive silent heartbeat
	// intervals make the Director presume a primary dead.
	DefaultMissedBeats = 4
)

// NodeRecord is one node's self-description inside a View. A node only
// ever publishes records about itself; everyone else just relays them.
type NodeRecord struct {
	// ID is the node's stable identity (its data directory by default).
	ID string `json:"id"`
	// URL is the base URL other cluster members reach the node at.
	URL string `json:"url"`
	// Group names the shard group the node belongs to.
	Group string `json:"group"`
	// Role is the node's current duty: RolePrimary or RoleFollower.
	Role string `json:"role"`
	// Fenced reports that a primary has fenced itself after observing a
	// successor with a later WAL epoch: it refuses writes (421) until an
	// operator restarts it as a follower.
	Fenced bool `json:"fenced,omitempty"`
	// Incarnation distinguishes process lifetimes of the same node id; a
	// restart picks a strictly larger value, so records from a previous
	// life can never dominate current ones.
	Incarnation int64 `json:"inc"`
	// Counter is the heartbeat counter, bumped every gossip round.
	// (Incarnation, Counter) totally orders one node's records.
	Counter uint64 `json:"ctr"`
	// WALEpoch and WALOffset are the node's durably-applied replication
	// position: the primary's own frontier, or the follower's ack
	// watermark in the primary's stream — exactly what semi-sync writes
	// wait on, and therefore what failover elects the successor by.
	WALEpoch  int64 `json:"wal_epoch"`
	WALOffset int64 `json:"wal_offset"`
}

// dominates reports whether r supersedes o in a merge. Records are ordered
// by (Incarnation, Counter); a full tie with different content — which a
// correct node never produces, but a merge must still be deterministic
// about — is broken by comparing the canonical encodings.
func (r NodeRecord) dominates(o NodeRecord) bool {
	if r.Incarnation != o.Incarnation {
		return r.Incarnation > o.Incarnation
	}
	if r.Counter != o.Counter {
		return r.Counter > o.Counter
	}
	return bytes.Compare(mustJSON(r), mustJSON(o)) > 0
}

// WatermarkAtLeast reports whether r's durably-applied position covers o's:
// a later epoch subsumes every earlier one.
func (r NodeRecord) WatermarkAtLeast(o NodeRecord) bool {
	if r.WALEpoch != o.WALEpoch {
		return r.WALEpoch > o.WALEpoch
	}
	return r.WALOffset >= o.WALOffset
}

// Rebalance is an in-flight ring change carried in the View. While one is
// pending, coordinators dual-route writes whose owner differs between From
// and To; when the migration completes the ring becomes To and the
// rebalance clears — that version bump is the atomic read cutover.
type Rebalance struct {
	From Ring `json:"from"`
	To   Ring `json:"to"`
}

// Active reports whether a rebalance is pending.
func (rb Rebalance) Active() bool { return rb.To.Version != 0 }

// dominates orders rebalances by target version (content tie-break as for
// records). The zero Rebalance never dominates an active one.
func (rb Rebalance) dominates(o Rebalance) bool {
	if rb.To.Version != o.To.Version {
		return rb.To.Version > o.To.Version
	}
	return bytes.Compare(mustJSON(rb), mustJSON(o)) > 0
}

// View is the epoch-versioned cluster picture every member converges on.
type View struct {
	// Nodes maps node id to that node's freshest known record.
	Nodes map[string]NodeRecord `json:"nodes,omitempty"`
	// Ring is the committed consistent-hash placement.
	Ring Ring `json:"ring"`
	// Rebalance is the pending ring change, if any.
	Rebalance Rebalance `json:"rebalance,omitempty"`
}

// Clone deep-copies the view.
func (v View) Clone() View {
	out := v
	if v.Nodes != nil {
		out.Nodes = make(map[string]NodeRecord, len(v.Nodes))
		for id, r := range v.Nodes {
			out.Nodes[id] = r
		}
	}
	out.Ring.Groups = append([]string(nil), v.Ring.Groups...)
	out.Rebalance.From.Groups = append([]string(nil), v.Rebalance.From.Groups...)
	out.Rebalance.To.Groups = append([]string(nil), v.Rebalance.To.Groups...)
	return out
}

// normalize applies the view's internal invariant: a rebalance whose
// target ring has been committed (ring version caught up to or past it) is
// finished and clears. normalize is what keeps Merge associative in the
// face of that clearing — the cleared state is a pure function of the
// pointwise-joined fields, so re-merging an already-cleared view with a
// stale pending one clears it again.
func (v *View) normalize() {
	if v.Rebalance.Active() && v.Ring.Version >= v.Rebalance.To.Version {
		v.Rebalance = Rebalance{}
	}
}

// Merge joins two views: pointwise record dominance, ring and rebalance
// version dominance, then normalization. It is commutative, associative
// and idempotent (pinned by a property test), which is what lets views
// travel along any gossip path in any order and still converge.
func Merge(a, b View) View {
	out := a.Clone()
	if out.Nodes == nil && len(b.Nodes) > 0 {
		out.Nodes = make(map[string]NodeRecord, len(b.Nodes))
	}
	for id, rec := range b.Nodes {
		if cur, ok := out.Nodes[id]; !ok || rec.dominates(cur) {
			out.Nodes[id] = rec
		}
	}
	if b.Ring.dominates(out.Ring) {
		out.Ring = b.Ring.clone()
	}
	if b.Rebalance.dominates(out.Rebalance) {
		out.Rebalance = b.Rebalance
		out.Rebalance.From = out.Rebalance.From.clone()
		out.Rebalance.To = out.Rebalance.To.clone()
	}
	out.normalize()
	return out
}

// GroupNodes returns the view's records for one group, primaries first,
// each section ordered by descending watermark then id — the order a
// consumer should try them in.
func (v View) GroupNodes(group string) []NodeRecord {
	var out []NodeRecord
	for _, rec := range v.Nodes {
		if rec.Group == group {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ap, bp := a.Role == RolePrimary && !a.Fenced, b.Role == RolePrimary && !b.Fenced
		if ap != bp {
			return ap
		}
		if a.WALEpoch != b.WALEpoch || a.WALOffset != b.WALOffset {
			return a.WatermarkAtLeast(b)
		}
		return a.ID < b.ID
	})
	return out
}

// Groups returns the sorted set of group names present in the view's node
// records (which may include groups not yet in the ring — candidates for a
// join).
func (v View) Groups() []string {
	seen := map[string]bool{}
	for _, rec := range v.Nodes {
		if rec.Group != "" {
			seen[rec.Group] = true
		}
	}
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// ViewStats is the /stats "membership" section: the merged view as an
// operator reads it — the committed ring and every known node, without the
// gossip bookkeeping (incarnations, heartbeat counters, the pending ring).
type ViewStats struct {
	RingVersion uint64        `json:"ring_version"`
	RingGroups  []string      `json:"ring_groups,omitempty"`
	Rebalancing bool          `json:"rebalancing,omitempty"`
	Nodes       []MemberStats `json:"nodes,omitempty"`
}

// MemberStats is one node row of ViewStats.
type MemberStats struct {
	ID        string `json:"id"`
	URL       string `json:"url,omitempty"`
	Group     string `json:"group"`
	Role      string `json:"role"`
	Fenced    bool   `json:"fenced,omitempty"`
	WALEpoch  int64  `json:"wal_epoch"`
	WALOffset int64  `json:"wal_offset"`
}

// Stats summarizes the view, nodes in Groups/GroupNodes order.
func (v View) Stats() ViewStats {
	st := ViewStats{RingVersion: v.Ring.Version, RingGroups: v.Ring.Groups, Rebalancing: v.Rebalance.Active()}
	for _, g := range v.Groups() {
		for _, rec := range v.GroupNodes(g) {
			st.Nodes = append(st.Nodes, MemberStats{
				ID: rec.ID, URL: rec.URL, Group: rec.Group, Role: rec.Role,
				Fenced: rec.Fenced, WALEpoch: rec.WALEpoch, WALOffset: rec.WALOffset,
			})
		}
	}
	return st
}

// EncodeView serializes a view to its JSON wire form. Encoding is
// deterministic (object keys sort), so equal views encode equal bytes —
// which the dominance tie-breaks rely on.
func EncodeView(v View) []byte { return mustJSON(v) }

// DecodeView parses and validates a wire view. Every structural invariant
// the merge and routing code relies on is enforced here, so a corrupt or
// malicious peer cannot poison a local view: map keys must match record
// ids, ids must be non-empty, and both rings (plus the rebalance's) must
// be canonical. The fuzz target pins "never panics, and whatever decodes
// cleanly re-encodes and merges safely".
func DecodeView(data []byte) (View, error) {
	var v View
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&v); err != nil {
		return View{}, fmt.Errorf("membership: decoding view: %w", err)
	}
	for id, rec := range v.Nodes {
		if id == "" || rec.ID != id {
			return View{}, fmt.Errorf("membership: view node key %q does not match record id %q", id, rec.ID)
		}
	}
	for _, r := range []Ring{v.Ring, v.Rebalance.From, v.Rebalance.To} {
		if err := r.validate(); err != nil {
			return View{}, err
		}
	}
	if v.Rebalance.Active() && v.Rebalance.To.Version <= v.Rebalance.From.Version {
		return View{}, fmt.Errorf("membership: rebalance target version %d not past source %d",
			v.Rebalance.To.Version, v.Rebalance.From.Version)
	}
	v.normalize()
	return v, nil
}

func mustJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Only unmarshalable types reach here; every type in this package
		// marshals.
		panic(err)
	}
	return data
}
