// Package server exposes a query-by-humming system over HTTP — the
// deployable face of the library. The API is deliberately small:
//
//	GET  /stats                 database size and configuration
//	GET  /songs                 the song catalogue (id, title, note count)
//	POST /query?top=K&delta=D   body: mono 16-bit PCM WAV of a hum
//	POST /query/pitch?...       body: JSON array of MIDI pitches (10 ms frames)
//	POST /songs?title=T         body: Standard MIDI File; indexes the melody
//	GET  /healthz               liveness probe (always 200 while serving)
//	GET  /readyz                readiness probe (503 while draining)
//
// Responses are JSON. Queries are read-pure and run concurrently with each
// other, with snapshots, and with uploads: the phrase index is sharded
// with one lock per shard, so an upload write-locks only the shards
// receiving its phrases while queries fan out across all shards in
// parallel (/stats carries a "shards" section with the layout). The
// expensive endpoints sit behind an admission semaphore: when every slot
// is busy past the queue timeout the server sheds load with 429 and a
// Retry-After header instead of queueing unboundedly. Each query carries
// a deadline and an exact-DTW budget; a budget-capped response is marked
// "degraded": true. Handler panics become 500s without killing the
// process.
//
// With a durable backend (NewBackend over *qbh.Durable), POST /songs is
// acknowledged only after the write is fsynced to the write-ahead log, a
// failed fsync answers 503 instead of a false 201, and /stats carries a
// "durability" section (snapshot age, WAL size, fsync latency).
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

// Backend is the system surface the handler serves: concurrent queries,
// catalogue reads and durable-or-not song uploads. *qbh.Concurrent (memory
// only) and *qbh.Durable (WAL + snapshots) both implement it.
type Backend interface {
	QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]qbh.SongMatch, index.QueryStats, error)
	NumSongs() int
	NumPhrases() int
	Songs() []music.Song
	AddSongTitled(title string, melody music.Melody) (music.Song, error)
}

// durabilityReporter is implemented by backends that persist writes
// (*qbh.Durable); /stats surfaces their durability state when present.
type durabilityReporter interface {
	DurabilityStats() qbh.DurabilityStats
}

// shardReporter is implemented by backends whose index is partitioned
// (*qbh.Concurrent and *qbh.Durable); /stats surfaces the shard layout and
// per-shard sizes when present.
type shardReporter interface {
	ShardStats() qbh.ShardStats
}

// primaryHinter is implemented by backends that know where their group's
// primary lives (*replica.Node followers). A misdirected write's 421
// then carries the primary URL as a Location header, so the client can
// reroute without fetching a membership view.
type primaryHinter interface {
	PrimaryHint() string
}

// replicationReporter is implemented by backends in a replica group
// (*replica.Node); /stats surfaces the role, fencing state and — on a
// primary — the per-follower ack watermarks failover elects by.
type replicationReporter interface {
	State() replica.StateResponse
	AckWatermarks() map[string]string
}

// membershipReporter is implemented by backends that hold a gossip
// membership view (*Coordinator); /stats surfaces it when present.
// Replica roles surface theirs through Handler.SetMembershipView, since
// the gossip agent lives beside the node, not inside it.
type membershipReporter interface {
	MembershipView() (membership.View, bool)
}

// poolReporter is implemented by backends whose storage can run
// out-of-core (*qbh.System, *qbh.Concurrent, *qbh.Durable); /stats
// surfaces the buffer-pool counters when paged mode is active.
type poolReporter interface {
	PoolStats() (pager.Stats, bool)
}

// cacheReporter is implemented by backends with a normalized-query result
// cache (*qbh.Concurrent, *qbh.Durable); /stats surfaces the hit/miss/
// invalidation counters when the cache is enabled.
type cacheReporter interface {
	CacheStats() (qbh.CacheStats, bool)
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
	// viewFn, when set, supplies the gossip membership view for /stats —
	// the wiring for replica roles, whose agent lives outside the backend.
	viewFn func() (membership.View, bool)
}

// SetMembershipView wires an external membership-view source (a gossip
// agent) into /stats. Backends that hold their own view (the
// coordinator) are picked up automatically and don't need this.
func (h *Handler) SetMembershipView(fn func() (membership.View, bool)) {
	h.viewFn = fn
}

// New builds the HTTP handler around a built system with default Config.
func New(sys *qbh.System) *Handler {
	return NewWithConfig(sys, Config{})
}

// NewWithConfig builds the HTTP handler with explicit serving limits. The
// system is memory-only; use NewBackend with a *qbh.Durable for a serving
// path whose uploads survive restarts.
func NewWithConfig(sys *qbh.System, cfg Config) *Handler {
	return NewBackend(qbh.NewConcurrent(sys), cfg)
}

// NewBackend builds the HTTP handler over an explicit backend, typically a
// *qbh.Durable so POST /songs is crash-safe.
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

// StatsResponse is the /stats payload. Durability is present only when
// the backend persists writes (a data directory is configured); Shards is
// present when the backend exposes its index partition layout.
type StatsResponse struct {
	Songs       int                  `json:"songs"`
	Phrases     int                  `json:"phrases"`
	Shards      *ShardsResponse      `json:"shards,omitempty"`
	BufferPool  *BufferPoolResponse  `json:"buffer_pool,omitempty"`
	ResultCache *ResultCacheResponse `json:"result_cache,omitempty"`
	Durability  *DurabilityResponse  `json:"durability,omitempty"`
	Replication *ReplicationResponse `json:"replication,omitempty"`
	Membership  *MembershipResponse  `json:"membership,omitempty"`
}

// BufferPoolResponse reports the out-of-core page pool in /stats, present
// only when the backend runs paged storage. HitRate is Hits/(Hits+Misses);
// Misses are real disk reads — the physical counterpart of the per-query
// logical_pages counter.
type BufferPoolResponse struct {
	PageSize   int     `json:"page_size"`
	PoolPages  int     `json:"pool_pages"`
	Resident   int     `json:"resident"`
	Pinned     int     `json:"pinned"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Evictions  uint64  `json:"evictions"`
	Writebacks uint64  `json:"writebacks"`
	Overflows  uint64  `json:"overflows"`
	HitRate    float64 `json:"hit_rate"`
}

// ResultCacheResponse reports the normalized-query result cache in
// /stats, present only when the backend was started with a cache budget.
// HitRate is Hits/(Hits+Misses), 0 before the first lookup; an
// epoch-invalidated lookup counts as both an invalidation and a miss.
type ResultCacheResponse struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	MaxBytes      int64   `json:"max_bytes"`
	HitRate       float64 `json:"hit_rate"`
}

// ShardsResponse reports the index partition layout in /stats: writes lock
// one shard, queries fan out across all of them in parallel.
type ShardsResponse struct {
	Count int `json:"count"`
	// Lens is the number of indexed phrases in each shard (balance
	// monitoring: the id hash should keep these within a few percent of
	// one another).
	Lens []int `json:"lens"`
}

// DurabilityResponse reports the storage-layer state in /stats.
type DurabilityResponse struct {
	Dir             string  `json:"dir"`
	SnapshotAgeSec  float64 `json:"snapshot_age_sec"`
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	Snapshots       int64   `json:"snapshots"`
	WALRecords      int64   `json:"wal_records"`
	WALBytes        int64   `json:"wal_bytes"`
	WALSyncs        int64   `json:"wal_syncs"`
	LastFsyncMicros int64   `json:"last_fsync_micros"`
}

// ReplicationResponse reports the node's place in its replica group in
// /stats: role, fencing state, replication frontier, and — on a primary
// — the per-follower durably-applied watermarks failover elects by.
type ReplicationResponse struct {
	Group  string `json:"group"`
	Role   string `json:"role"`
	Fenced bool   `json:"fenced,omitempty"`
	Epoch  int64  `json:"epoch"`
	Offset int64  `json:"offset"`
	// AckWatermarks maps follower id to its confirmed "epoch:offset"
	// position in the primary's WAL stream.
	AckWatermarks map[string]string `json:"ack_watermarks,omitempty"`
}

// MembershipResponse reports the merged gossip view in /stats.
type MembershipResponse struct {
	RingVersion uint64           `json:"ring_version"`
	RingGroups  []string         `json:"ring_groups,omitempty"`
	Rebalancing bool             `json:"rebalancing,omitempty"`
	Nodes       []MemberResponse `json:"nodes,omitempty"`
}

// MemberResponse is one node row of the membership view.
type MemberResponse struct {
	ID        string `json:"id"`
	URL       string `json:"url,omitempty"`
	Group     string `json:"group"`
	Role      string `json:"role"`
	Fenced    bool   `json:"fenced,omitempty"`
	WALEpoch  int64  `json:"wal_epoch"`
	WALOffset int64  `json:"wal_offset"`
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
	// CoarseSurvivors and KeoghSurvivors expose the intermediate cascade
	// stages (coarse New_PAA box, then LB_Keogh) so pruning power is
	// observable per stage across the cluster, not just end to end.
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
	resp := StatsResponse{Songs: h.sys.NumSongs(), Phrases: h.sys.NumPhrases()}
	if sr, ok := h.sys.(shardReporter); ok {
		st := sr.ShardStats()
		resp.Shards = &ShardsResponse{Count: st.Shards, Lens: st.Lens}
	}
	if pr, ok := h.sys.(poolReporter); ok {
		if st, paged := pr.PoolStats(); paged {
			// A pool that has served no requests has no hit rate; Stats.HitRate
			// reports the optimistic 1 in that state, but a monitoring surface
			// must not claim a perfect rate (or NaN) before the first lookup.
			rate := st.HitRate()
			if st.Hits+st.Misses == 0 {
				rate = 0
			}
			resp.BufferPool = &BufferPoolResponse{
				PageSize:   st.PageSize,
				PoolPages:  st.PoolPages,
				Resident:   st.Resident,
				Pinned:     st.Pinned,
				Hits:       st.Hits,
				Misses:     st.Misses,
				Evictions:  st.Evictions,
				Writebacks: st.Writeback,
				Overflows:  st.Overflows,
				HitRate:    rate,
			}
		}
	}
	if cr, ok := h.sys.(cacheReporter); ok {
		if st, enabled := cr.CacheStats(); enabled {
			resp.ResultCache = &ResultCacheResponse{
				Hits:          st.Hits,
				Misses:        st.Misses,
				Invalidations: st.Invalidations,
				Entries:       st.Entries,
				Bytes:         st.Bytes,
				MaxBytes:      st.MaxBytes,
				HitRate:       st.HitRate(),
			}
		}
	}
	if dr, ok := h.sys.(durabilityReporter); ok {
		st := dr.DurabilityStats()
		resp.Durability = &DurabilityResponse{
			Dir:             st.Dir,
			SnapshotAgeSec:  st.SnapshotAge.Seconds(),
			SnapshotBytes:   st.SnapshotBytes,
			Snapshots:       st.Snapshots,
			WALRecords:      st.WALRecords,
			WALBytes:        st.WALBytes,
			WALSyncs:        st.WALSyncs,
			LastFsyncMicros: st.LastFsync.Microseconds(),
		}
	}
	if rr, ok := h.sys.(replicationReporter); ok {
		st := rr.State()
		resp.Replication = &ReplicationResponse{
			Group:         st.Group,
			Role:          string(st.Role),
			Fenced:        st.Fenced,
			Epoch:         st.Epoch,
			Offset:        st.Offset,
			AckWatermarks: rr.AckWatermarks(),
		}
	}
	if view, ok := h.membershipView(); ok {
		m := &MembershipResponse{
			RingVersion: view.Ring.Version,
			RingGroups:  view.Ring.Groups,
			Rebalancing: view.Rebalance.Active(),
		}
		for _, g := range view.Groups() {
			for _, rec := range view.GroupNodes(g) {
				m.Nodes = append(m.Nodes, MemberResponse{
					ID:        rec.ID,
					URL:       rec.URL,
					Group:     rec.Group,
					Role:      rec.Role,
					Fenced:    rec.Fenced,
					WALEpoch:  rec.WALEpoch,
					WALOffset: rec.WALOffset,
				})
			}
		}
		resp.Membership = m
	}
	writeJSON(w, resp)
}

// membershipView finds the gossip view to surface: the explicitly wired
// source first (replica roles), then the backend's own (coordinator).
func (h *Handler) membershipView() (membership.View, bool) {
	if h.viewFn != nil {
		return h.viewFn()
	}
	if mr, ok := h.sys.(membershipReporter); ok {
		return mr.MembershipView()
	}
	return membership.View{}, false
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (h *Handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !h.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (h *Handler) handleSongs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		songs := h.sys.Songs()
		out := make([]SongInfo, len(songs))
		for i, s := range songs {
			out[i] = SongInfo{ID: s.ID, Title: s.Title, Notes: s.Melody.NumNotes()}
		}
		writeJSON(w, out)
	case http.MethodPost:
		h.handleAddSong(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// maxBodyPrealloc is the most readBody allocates on the word of a
// Content-Length header, before any of the body has arrived.
const maxBodyPrealloc = 1 << 20

// readBody drains the request body under the upload cap, distinguishing
// oversized bodies (413) from transport errors (400). A declared
// Content-Length up to maxBodyPrealloc sizes the buffer once; a larger body
// grows it as its bytes arrive, so a header that lies pins no more than
// that and ends in a 400.
func (h *Handler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	rd := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	var body []byte
	var err error
	if n := r.ContentLength; n >= 0 {
		n = min(n, h.cfg.MaxBodyBytes, maxBodyPrealloc)
		// ReadFrom wants MinRead spare bytes to see EOF without growing.
		buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
		_, err = buf.ReadFrom(rd)
		body = buf.Bytes()
	} else {
		body, err = io.ReadAll(rd)
	}
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
		switch {
		// A durability failure is a server-side storage problem, not a bad
		// request: the write was NOT acknowledged and must be retried.
		case errors.Is(err, qbh.ErrNotDurable):
			httpError(w, http.StatusServiceUnavailable, "storing: %v", err)
		// Misdirected write in a replica group: the client must resend to
		// the primary. 421 is not retryable-here, unlike 503; a follower
		// that knows its primary names it in Location so the client can
		// reroute without a membership-view fetch.
		case errors.Is(err, replica.ErrNotPrimary):
			if ph, ok := h.sys.(primaryHinter); ok {
				if hint := ph.PrimaryHint(); hint != "" {
					w.Header().Set("Location", hint+r.URL.RequestURI())
				}
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
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, SongInfo{ID: song.ID, Title: title, Notes: melody.NumNotes()})
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
		if err != nil || delta < 0 || delta > 1 {
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
	var pitches []float64
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes))
	if err := dec.Decode(&pitches); err != nil {
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

// validatePitch rejects inputs that would poison normalization: non-finite
// values and absurdly long frame arrays.
func validatePitch(pitches []float64, maxFrames int) error {
	if err := checkFrameCap(len(pitches), maxFrames); err != nil {
		return err
	}
	for i, v := range pitches {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite pitch value at frame %d", i)
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
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do.
		return
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}
