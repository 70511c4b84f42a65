package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"warping/internal/qbh"
)

// Mount registers the replication endpoints. The argument is satisfied by
// *http.ServeMux and by the server package's Handler.
func (n *Node) Mount(mux interface {
	Handle(pattern string, handler http.Handler)
}) {
	mux.Handle(PathState, http.HandlerFunc(n.handleState))
	mux.Handle(PathWAL, http.HandlerFunc(n.handleWAL))
	mux.Handle(PathPromote, http.HandlerFunc(n.handlePromote))
	mux.Handle(PathImport, http.HandlerFunc(n.handleImport))
}

func replyJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (n *Node) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	replyJSON(w, n.State())
}

// handleWAL serves the durable songs of the sequence from
// ?from=epoch:seq on, as a qbh.EncodeSongs body with the next position in
// PositionHeader. A caught-up follower long-polls: the handler parks on
// the durable-commit broadcast for up to ?wait= and answers an empty batch
// on timeout. The request's from is the follower's durable ack watermark
// and is recorded before serving, which is what semi-sync writes wait on.
func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	from, err := qbh.ParseReplicationState(q.Get("from"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from: %v", err), http.StatusBadRequest)
		return
	}
	wait := time.Duration(0)
	if s := q.Get("wait"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > DefaultPollWait {
		wait = DefaultPollWait
	}
	n.recordAck(q.Get("follower"), from)

	deadline := time.Now().Add(wait)
	for {
		// Subscribe before reading: a commit that lands between the read
		// and the park still closes this channel, so no wake-up is lost.
		notify := n.DurableNotify()
		songs, next := n.SongsFrom(from, maxBatchSongs)
		if len(songs) > 0 || next != from || wait == 0 || time.Now().After(deadline) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(PositionHeader, next.String())
			_, _ = w.Write(qbh.EncodeSongs(songs))
			return
		}
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := n.Promote(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	replyJSON(w, n.State())
}

// maxImportBytes caps a PathImport body: the body cap of the server's
// POST /songs. A song whose MIDI file fit under that cap has a
// smaller record.
const maxImportBytes = 16 << 20

// handleImport applies a qbh.EncodeSongs body: each song lands under its
// original id through the idempotent durable apply, then the batch waits
// for the semi-sync quorum once — an imported song gets the same
// durability guarantee as a client write before the coordinator
// acknowledges it. A body past maxImportBytes is a 413, and one that does
// not decode — a malformed record, or a song Validate refuses — a 400;
// neither applies any of it.
func (n *Node) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := n.writeGate(); err != nil {
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	songs, err := qbh.DecodeSongs(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
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
