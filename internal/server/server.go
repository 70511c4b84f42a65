// Package server exposes a query-by-humming system over HTTP — the
// deployable face of the library. The API is deliberately small:
//
//	GET  /stats                 database size, plus one section per backend layer
//	GET  /songs                 the song catalogue (id, title, note count)
//	POST /query?top=K&delta=D   body: mono 16-bit PCM WAV of a hum
//	POST /query/pitch?...       body: JSON array of MIDI pitches (10 ms frames)
//	POST /songs?title=T         body: Standard MIDI File; indexes the melody
//	GET  /healthz               liveness probe (always 200 while serving)
//	GET  /readyz                readiness probe (503 while draining)
//
// Responses are JSON. Queries are read-pure and run concurrently with each
// other, with snapshots, and with uploads: the phrase index sits behind one
// RWMutex that queries share and an upload takes once per phrase insert. The
// expensive endpoints sit behind an admission semaphore: when every slot
// is busy past the queue timeout the server sheds load with 429 and a
// Retry-After header instead of queueing unboundedly. Each query carries
// a deadline and an exact-DTW budget; a budget-capped response is marked
// "degraded": true. Handler panics become 500s without killing the
// process.
//
// The handler knows the system only through the Backend interface, which
// *qbh.System, *qbh.Durable, *replica.Node and *Coordinator implement; what
// differs between them reaches the client through Backend.Stats (the /stats
// sections each layer owns) and through the errors a write can return.
// With a durable backend (NewBackend over *qbh.Durable), POST /songs is
// acknowledged only after the write is fsynced to the write-ahead log, a
// failed fsync answers 503 instead of a false 201, and /stats carries a
// "durability" section (snapshot age, WAL size, fsync latency). A replica
// that is not its group's primary answers 421, with the primary's address
// in Location when it knows it.
//
// A Coordinator is a Backend over a cluster of replicated shard groups, so
// the same handler serves the same API in front of it: each hum is
// forwarded to the POST /query/pitch of one replica per group and the
// groups' rankings are merged. It holds no index options — every replica
// plans the query with the options its own database was built with.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/membership"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/ts"
)

// Backend is everything the handler knows about the system it serves:
// concurrent queries, catalogue reads, durable-or-not song uploads, and the
// /stats sections the backend's layers own. *qbh.System (memory only),
// *qbh.Durable (WAL + snapshots), *replica.Node (a replica-group member)
// and *Coordinator (a cluster of groups) implement it. What the handler
// needs from a failure rides on the error: qbh.ErrNotDurable,
// replica.ErrNotReplicated, *replica.NotPrimaryError (the primary's URL),
// *rejectedError (a replica's own 4xx).
type Backend interface {
	QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]qbh.SongMatch, index.QueryStats, error)
	NumSongs() int
	NumPhrases() int
	Songs() []music.Song
	AddSongTitled(title string, melody music.Melody) (music.Song, error)
	// Stats calls add once per /stats section the backend has, each layer
	// adding its own and delegating down (see StatsResponse for the names).
	Stats(add func(section string, v any))
}

// Config tunes the serving path. The zero value of any field selects the
// default.
type Config struct {
	// MaxConcurrent is the number of admission slots for the expensive
	// endpoints (/query, /query/pitch, POST /songs). Default: GOMAXPROCS,
	// at least 2.
	MaxConcurrent int
	// QueueTimeout is how long a request waits for an admission slot
	// before being shed with 429. Default 2s.
	QueueTimeout time.Duration
	// QueryTimeout is the per-query deadline; a query that exceeds it is
	// cancelled and answered with 503. Default 15s. Negative disables.
	QueryTimeout time.Duration
	// MaxExactDTW caps exact DTW verifications per query; responses that
	// hit the cap are marked degraded. Default 100000. Negative disables.
	MaxExactDTW int
	// MaxBodyBytes bounds upload bodies; larger bodies get 413.
	// Default 16 MiB (a minute of 8 kHz 16-bit audio is ~1 MB).
	MaxBodyBytes int64
	// MaxPitchFrames bounds a query's length in 10 ms frames: the
	// /query/pitch array, and the audio of a /query WAV before it is
	// tracked. Default 60000 (ten minutes).
	MaxPitchFrames int
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 2 {
			c.MaxConcurrent = 2
		}
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 15 * time.Second
	}
	if c.MaxExactDTW == 0 {
		c.MaxExactDTW = 100000
	}
	if c.MaxExactDTW < 0 {
		c.MaxExactDTW = 0 // index.Limits semantics: 0 = unlimited
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxPitchFrames <= 0 {
		c.MaxPitchFrames = 60000
	}
}

// Handler serves the QBH API over a Backend.
type Handler struct {
	sys   Backend
	mux   *http.ServeMux
	cfg   Config
	sem   chan struct{}
	ready atomic.Bool
	// candidateHook, when non-nil, is passed to every query's
	// index.Limits — fault injection for tests (slow queries, blocking).
	candidateHook func()
}

// NewBackend builds the HTTP handler over a backend; the zero Config
// selects every default.
func NewBackend(sys Backend, cfg Config) *Handler {
	cfg.fill()
	h := &Handler{
		sys: sys,
		mux: http.NewServeMux(),
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxConcurrent),
	}
	h.ready.Store(true)
	h.mux.HandleFunc("/stats", h.handleStats)
	h.mux.HandleFunc("/songs", h.handleSongs)
	h.mux.HandleFunc("/query", h.handleQueryWAV)
	h.mux.HandleFunc("/query/pitch", h.handleQueryPitch)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/readyz", h.handleReadyz)
	return h
}

// Handle registers an additional route on the handler's mux — replication
// endpoints (replica.Node.Mount) and anything else that should share the
// server's panic containment.
func (h *Handler) Handle(pattern string, handler http.Handler) {
	h.mux.Handle(pattern, handler)
}

// SetReady flips the /readyz state; a draining server sets it false so
// load balancers stop routing new traffic while in-flight requests finish.
func (h *Handler) SetReady(ready bool) { h.ready.Store(ready) }

// ServeHTTP implements http.Handler with panic containment.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			httpError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	h.mux.ServeHTTP(w, r)
}

// acquire takes an admission slot, waiting at most QueueTimeout. It
// reports false when the request should be shed (timeout or client gone).
func (h *Handler) acquire(ctx context.Context) bool {
	select {
	case h.sem <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(h.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case h.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (h *Handler) release() { <-h.sem }

// admit wraps acquire with the 429 + Retry-After overload response.
func (h *Handler) admit(w http.ResponseWriter, r *http.Request) bool {
	if h.acquire(r.Context()) {
		return true
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "server at capacity (%d concurrent requests), retry shortly", h.cfg.MaxConcurrent)
	return false
}

// StatsResponse is the /stats document as a client decodes it: the counts
// plus one optional section per layer of the backend, each the struct its
// owner hands to Backend.Stats — BufferPool (paged storage only)
// and ResultCache (when enabled) from the System, Durability from the
// Durable, Replication from the replica Node, Membership from whoever holds
// a gossip view (a Node with an agent, a seed-mode Coordinator).
type StatsResponse struct {
	Songs       int                       `json:"songs"`
	Phrases     int                       `json:"phrases"`
	BufferPool  *pager.Stats              `json:"buffer_pool,omitempty"`
	ResultCache *qbh.CacheStats           `json:"result_cache,omitempty"`
	Durability  *qbh.DurabilityStats      `json:"durability,omitempty"`
	Replication *replica.ReplicationStats `json:"replication,omitempty"`
	Membership  *membership.ViewStats     `json:"membership,omitempty"`
}

// SongInfo is one /songs row.
type SongInfo struct {
	ID    int64  `json:"id"`
	Title string `json:"title"`
	Notes int    `json:"notes"`
}

// MatchResponse is one ranked query result.
type MatchResponse struct {
	SongID int64   `json:"song_id"`
	Title  string  `json:"title"`
	Dist   float64 `json:"dist"`
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	Matches      []MatchResponse `json:"matches"`
	VoicedFrames int             `json:"voiced_frames"`
	Candidates   int             `json:"candidates"`
	// CoarseSurvivors always equals Candidates: the coarse box stage it
	// counted is gone and the frozen benchmark still decodes the key
	// (index.QueryStats.CoarseSurvivors). KeoghSurvivors exposes the
	// intermediate cascade stage so pruning power is observable per stage
	// across the cluster, not just end to end.
	CoarseSurvivors int `json:"coarse_survivors"`
	KeoghSurvivors  int `json:"keogh_survivors"`
	LBSurvivors     int `json:"lb_survivors"`
	ExactDTW        int `json:"exact_dtw"`
	// LogicalPages counts index nodes/buckets visited — the paper's
	// page-access measure, independent of caching. PageAccesses is the
	// physical cost: real buffer-pool misses when the backend runs
	// out-of-core, equal to LogicalPages in all-in-RAM mode.
	LogicalPages int `json:"logical_pages"`
	PageAccesses int `json:"page_accesses"`
	// Degraded reports that the query hit its exact-DTW budget and the
	// ranking is best-effort rather than exact.
	Degraded bool `json:"degraded,omitempty"`
	// Cached reports that the result was served from the normalized-query
	// result cache; the work counters above describe the cached execution.
	Cached bool `json:"cached,omitempty"`
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	doc := map[string]any{"songs": h.sys.NumSongs(), "phrases": h.sys.NumPhrases()}
	h.sys.Stats(func(section string, v any) { doc[section] = v })
	writeJSON(w, http.StatusOK, doc)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !h.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (h *Handler) handleSongs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		songs := h.sys.Songs()
		out := make([]SongInfo, len(songs))
		for i, s := range songs {
			out[i] = SongInfo{ID: s.ID, Title: s.Title, Notes: s.Melody.NumNotes()}
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		h.handleAddSong(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// maxBodyPrealloc is the most readBody allocates on the word of a
// Content-Length header, before any of the body has arrived.
const maxBodyPrealloc = 1 << 20

// readAll drains the request body under the upload cap; on a read error
// it returns the bytes that arrived before it. A declared Content-Length up
// to maxBodyPrealloc sizes the buffer once; a larger body grows it as its
// bytes arrive, so a header that lies pins no more than that.
func (h *Handler) readAll(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	n := r.ContentLength
	if n < 0 {
		return io.ReadAll(rd)
	}
	n = min(n, h.cfg.MaxBodyBytes, maxBodyPrealloc)
	// ReadFrom wants MinRead spare bytes to see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// readBody is readAll distinguishing oversized bodies (413) from transport
// errors (400).
func (h *Handler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := h.readAll(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

func (h *Handler) handleAddSong(w http.ResponseWriter, r *http.Request) {
	if !h.admit(w, r) {
		return
	}
	defer h.release()
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	melody, err := midi.DecodeMelody(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing MIDI: %v", err)
		return
	}
	title := r.URL.Query().Get("title")
	if title == "" {
		title = fmt.Sprintf("Uploaded Song %d", h.sys.NumSongs())
	}
	// The id is allocated inside AddSongTitled under the system's write
	// lock, so concurrent uploads cannot race to the same id.
	song, err := h.sys.AddSongTitled(title, melody)
	if err != nil {
		var notPrimary *replica.NotPrimaryError
		switch {
		// A durability failure is a server-side storage problem, not a bad
		// request: the write was NOT acknowledged and must be retried.
		case errors.Is(err, qbh.ErrNotDurable):
			httpError(w, http.StatusServiceUnavailable, "storing: %v", err)
		// Misdirected write in a replica group: the client must resend to
		// the primary. 421 is not retryable-here, unlike 503; a follower
		// that knows its primary names it in Location so the client can
		// reroute without a membership-view fetch.
		case errors.As(err, &notPrimary):
			if notPrimary.Primary != "" {
				w.Header().Set("Location", notPrimary.Primary+r.URL.RequestURI())
			}
			httpError(w, http.StatusMisdirectedRequest, "%v", err)
		// Durable locally but the follower quorum did not confirm: not
		// acknowledged, safe to retry.
		case errors.Is(err, replica.ErrNotReplicated):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "indexing: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, SongInfo{ID: song.ID, Title: title, Notes: melody.NumNotes()})
}

// queryParams extracts top and delta with defaults.
func queryParams(r *http.Request) (topK int, delta float64, err error) {
	topK, delta = 5, 0.1
	if v := r.URL.Query().Get("top"); v != "" {
		topK, err = strconv.Atoi(v)
		if err != nil || topK < 1 || topK > 100 {
			return 0, 0, fmt.Errorf("invalid top %q", v)
		}
	}
	if v := r.URL.Query().Get("delta"); v != "" {
		delta, err = strconv.ParseFloat(v, 64)
		if err != nil || !(delta >= 0 && delta <= 1) { // NaN too
			return 0, 0, fmt.Errorf("invalid delta %q", v)
		}
	}
	return topK, delta, nil
}

func (h *Handler) handleQueryWAV(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST with a WAV body")
		return
	}
	topK, delta, err := queryParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !h.admit(w, r) {
		return
	}
	defer h.release()
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	pitch, err := pitchFromWAV(body, h.cfg.MaxPitchFrames)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h.respondQuery(w, r, pitch, topK, delta)
}

func (h *Handler) handleQueryPitch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST with a JSON pitch array")
		return
	}
	topK, delta, err := queryParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !h.admit(w, r) {
		return
	}
	defer h.release()
	pitches, err := decodePitch(h.readAll(w, r))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "parsing pitch JSON: %v", err)
		return
	}
	if err := validatePitch(pitches, h.cfg.MaxPitchFrames); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pitch := hum.StripSilence(ts.Series(pitches))
	h.respondQuery(w, r, pitch, topK, delta)
}

// maxPitch bounds the magnitude of a /query/pitch value. Pitch is in MIDI
// note numbers (semitones, 69 = A4 at 440 Hz, fractions allowed) and 0 marks
// an unvoiced frame; MIDI itself ends at 127. The bound is far above any
// sung note and only keeps every squared distance the query makes finite.
const maxPitch = 1000

// validatePitch rejects inputs that would poison normalization: non-finite
// values, values beyond ±maxPitch, and absurdly long frame arrays.
func validatePitch(pitches []float64, maxFrames int) error {
	if err := checkFrameCap(len(pitches), maxFrames); err != nil {
		return err
	}
	for i, v := range pitches {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite pitch value at frame %d", i)
		}
		if math.Abs(v) > maxPitch {
			return fmt.Errorf("pitch value %g at frame %d is beyond ±%d", v, i, maxPitch)
		}
	}
	return nil
}

// checkFrameCap bounds a query's length in 10 ms frames, whether they
// arrive as a pitch array or as audio still to be tracked.
func checkFrameCap(frames, maxFrames int) error {
	if frames > maxFrames {
		return fmt.Errorf("query has %d frames, cap is %d", frames, maxFrames)
	}
	return nil
}

func (h *Handler) respondQuery(w http.ResponseWriter, r *http.Request, pitch ts.Series, topK int, delta float64) {
	if len(pitch) < 10 {
		httpError(w, http.StatusBadRequest, "query too short: %d voiced frames", len(pitch))
		return
	}
	ctx := r.Context()
	if h.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.cfg.QueryTimeout)
		defer cancel()
	}
	lim := index.Limits{MaxExactDTW: h.cfg.MaxExactDTW, CandidateHook: h.candidateHook}
	matches, stats, err := h.sys.QueryCtx(ctx, pitch, topK, delta, lim)
	var rejected *rejectedError
	if errors.As(err, &rejected) {
		// A replica behind the coordinator called the request itself wrong:
		// its answer is ours, so the client fixes the query instead of
		// retrying it.
		httpError(w, rejected.status, "%s", rejected.msg)
		return
	}
	if err != nil {
		// Deadline hit or the client went away; either way the result is
		// partial, so answer with an error (best-effort for a gone client).
		httpError(w, http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	resp := QueryResponse{
		VoicedFrames:    len(pitch),
		Candidates:      stats.Candidates,
		CoarseSurvivors: stats.CoarseSurvivors,
		KeoghSurvivors:  stats.KeoghSurvivors,
		LBSurvivors:     stats.LBSurvivors,
		ExactDTW:        stats.ExactDTW,
		LogicalPages:    stats.LogicalPages,
		PageAccesses:    stats.PageAccesses,
		Degraded:        stats.Degraded,
		Cached:          stats.Cached,
	}
	for _, m := range matches {
		resp.Matches = append(resp.Matches, MatchResponse{SongID: m.SongID, Title: m.Title, Dist: m.Dist})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON answers code with v as JSON. v is marshalled before anything is
// written, so a value JSON cannot hold (a non-finite float) is answered 500
// with an error body instead of a success status with no body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // what json.Encoder writes
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}
