package replica

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"warping/internal/membership"
	"warping/internal/music"
	"warping/internal/store"
)

// Dynamic-topology endpoints, mounted next to the replication protocol.
// membership's Default*Path constants mirror these; a pin test keeps the
// two packages from drifting apart (membership cannot import this package
// — it would invert the dependency).
const (
	// PathExport (POST, ExportRequest body) streams the local songs that
	// the given ring places on the given group, as a store container — the
	// rebalancer's source leg.
	PathExport = "/replica/export"
	// PathImport (POST, export container body) applies shipped songs
	// id-preservingly and idempotently — the rebalancer's destination leg.
	// Role-gated like any write: the import lands on the destination
	// primary and replicates to its followers through the ordinary WAL.
	PathImport = "/replica/import"
)

// exportKind is the container kind of a PathExport stream.
const exportKind = "replica/export"

// EncodeExport serializes songs as a PathImport-consumable container —
// the same framing PathExport streams. The coordinator uses it to build
// the id-preserving second leg of a dual-routed write during a rebalance.
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

// MembershipRecord assembles this node's self-description for the gossip
// agent: its role, and the durably-applied WAL position failover elects
// by — the primary's own frontier, or the follower's position in the
// primary's stream (exactly what semi-sync acks advance).
func (n *Node) MembershipRecord(id, url string) membership.NodeRecord {
	n.mu.Lock()
	role := n.role
	fenced := n.fenced
	pos := n.pos
	n.mu.Unlock()
	rec := membership.NodeRecord{
		ID:     id,
		URL:    url,
		Group:  n.cfg.Group,
		Role:   string(role),
		Fenced: fenced,
	}
	if role == RolePrimary {
		st := n.Durable.ReplState()
		rec.WALEpoch, rec.WALOffset = st.Epoch, st.Offset
	} else {
		rec.WALEpoch, rec.WALOffset = pos.Epoch, pos.Offset
	}
	return rec
}

// ObserveView is called with every merged view the gossip agent produces.
//
// A follower pulls from the group primary the view names: the first of
// v.GroupNodes(group), when that record is an unfenced primary other than
// this node — the rule the coordinator routes writes by. Its pull target
// and its 421 Location hint move there, so a follower that was down during
// a failover, or restarts after one with its original -peers, finds the new
// primary on its next heartbeat.
//
// A primary runs the fencing check. One that sees another unfenced primary
// in its own group with a strictly later WAL epoch has been superseded — a
// failover promoted a follower while this node was presumed dead (the
// promotion opened a fresh WAL generation past anything this node wrote).
// It fences itself: writes answer ErrNotPrimary (HTTP 421) from then on,
// so a partitioned-but-alive old primary cannot accept writes the rest of
// the cluster will never see. Fencing is best-effort split-brain
// hygiene; the zero-acked-write-loss guarantee comes from semi-sync
// quorums, not from this check.
func (n *Node) ObserveView(selfID string, v membership.View) {
	n.observeRing(v)
	n.mu.Lock()
	n.view = v
	role, fenced := n.role, n.fenced
	if role == RoleFollower {
		if recs := v.GroupNodes(n.cfg.Group); len(recs) > 0 {
			if p := recs[0]; p.Role == membership.RolePrimary && !p.Fenced && p.ID != selfID && p.URL != n.primary {
				n.cfg.Logf("replica: following the view's primary of group %q: pull target %s -> %s", n.cfg.Group, n.primary, p.URL)
				n.primary = p.URL
			}
		}
	}
	n.mu.Unlock()
	if role != RolePrimary || fenced {
		return
	}
	myEpoch := n.Durable.Epoch()
	for _, rec := range v.Nodes {
		if rec.ID == selfID || rec.Group != n.cfg.Group || rec.Fenced {
			continue
		}
		if rec.Role == membership.RolePrimary && rec.WALEpoch > myEpoch {
			n.mu.Lock()
			n.fenced = true
			n.mu.Unlock()
			n.cfg.Logf("replica: fenced: %s is primary of group %q at epoch %d (ours %d); refusing writes",
				rec.ID, n.cfg.Group, rec.WALEpoch, myEpoch)
			return
		}
	}
}

// observeRing keeps the durable layer's compaction reap filter in sync
// with the committed placement: once a ring change has been committed (no
// rebalance pending) and this node's group is a ring member, any local
// song whose title the ring places on another group was migrated away —
// the rebalancer shipped it before the cutover — and is reaped at the
// next snapshot compaction. While a rebalance is in flight, or when the
// view carries no ring (or one this group is not part of — a partial or
// bootstrap view), the filter is cleared: reaping on an uncommitted or
// incomplete picture could destroy the only copy of a song. Every node of
// the group installs the same filter, so primaries and followers converge
// independently through their own compactions without any WAL traffic.
func (n *Node) observeRing(v membership.View) {
	if v.Ring.Empty() || v.Rebalance.Active() || !v.Ring.Contains(n.cfg.Group) {
		n.Durable.SetCompactKeep(nil)
		return
	}
	ring, group := v.Ring, n.cfg.Group
	n.Durable.SetCompactKeep(func(song music.Song) bool {
		return ring.Owner(song.Title) == group
	})
}

// Fenced reports whether this primary has fenced itself.
func (n *Node) Fenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced
}

// primaryURL is the follower's current pull target (ObserveView moves it).
func (n *Node) primaryURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// handleExport streams every local song the request's ring places on the
// request's group. Any role serves it (it is a read); the container lands
// on the destination primary via PathImport. The song set is collected
// before writing so the count can travel in a header — the rebalancer
// skips the import leg for empty exports.
func (n *Node) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req membership.ExportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad export request", http.StatusBadRequest)
		return
	}
	if req.Group == "" || req.Ring.Empty() {
		http.Error(w, "export needs a ring and a group", http.StatusBadRequest)
		return
	}
	var moving []music.Song
	for _, song := range n.Songs() {
		if req.Ring.Owner(song.Title) == req.Group {
			moving = append(moving, song)
		}
	}
	w.Header().Set(membership.ExportCountHeader, strconv.Itoa(len(moving)))
	if len(moving) == 0 {
		w.WriteHeader(http.StatusOK)
		return
	}
	stream, err := EncodeExport(moving)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(stream); err != nil {
		n.cfg.Logf("replica: export stream to %s aborted: %v", r.RemoteAddr, err)
	}
}

// handleImport applies an export container: each song lands under its
// original id through the idempotent durable apply, then the batch waits
// for the semi-sync quorum once — imported songs get the same durability
// guarantee as client writes before the rebalancer counts them shipped.
func (n *Node) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := n.writeGate(); err != nil {
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
		return
	}
	kind, sections, err := store.ReadContainer(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad export container: %v", err), http.StatusBadRequest)
		return
	}
	if kind != exportKind {
		http.Error(w, fmt.Sprintf("wrong container kind %q", kind), http.StatusBadRequest)
		return
	}
	var songs []music.Song
	for _, sec := range sections {
		if sec.Name != "songs" {
			continue
		}
		if err := gob.NewDecoder(bytes.NewReader(sec.Data)).Decode(&songs); err != nil {
			http.Error(w, fmt.Sprintf("bad songs section: %v", err), http.StatusBadRequest)
			return
		}
	}
	applied := 0
	for _, song := range songs {
		ok, err := n.Durable.ApplySong(song)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if ok {
			applied++
		}
	}
	if applied > 0 {
		if err := n.waitQuorum(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	replyJSON(w, map[string]int{"applied": applied, "received": len(songs)})
}
