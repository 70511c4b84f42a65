// Package qbh assembles the full query-by-humming system of Section 3:
// a song database segmented into phrases, phrase time series normalized to
// be invariant under pitch shifting and tempo scaling, a DTW index over the
// normal forms, and ranked song retrieval for hummed queries.
//
// The pipeline for a query is exactly the paper's: pitch time series (from
// the pitch tracker, silence removed) -> UTW normal form (stretch to the
// database's normal-form length, subtract the mean) -> envelope ->
// feature-space envelope -> index search -> LB filter -> exact banded DTW
// -> ranking of songs by their best-matching phrase.
package qbh

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"warping/internal/core"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/ts"
)

// Options configures a System.
type Options struct {
	// NormalLen is the UTW normal-form length (default 128).
	NormalLen int
	// Dim is the New_PAA feature dimensionality (default 16; must divide
	// NormalLen). It is persisted in a run's header, so a data directory
	// keeps the dimension it was built with: one written before the default
	// was 16 (it was 8) reopens at 8. At 16 a leaf entry — 16 float32
	// coordinates and the id, 72 B — takes what an 8-dimensional float64
	// entry took, 113 to an 8 KiB page, and a hum's candidates about halve.
	Dim int
	// PhraseMin and PhraseMax bound phrase sizes in notes (defaults 15
	// and 30, the paper's melody sizes).
	PhraseMin, PhraseMax int
	// Pager enables out-of-core paged storage when Pager.Dir is set: the
	// phrase corpus and the R-tree base live in write-once fixed-size page
	// files behind a shared, read-only buffer pool instead of RAM arenas,
	// and the working set is bounded by Pager.PoolPages (plus the phrases
	// added since the last merge, which stay in RAM until it). The page size is widened
	// automatically so one normal-form series fits a page. Never persisted
	// in snapshots (a run holds the four fields above): page files are derived state, rebuilt
	// at load time from whatever configuration the loading process runs
	// with — a snapshot shipped to another machine must not carry this
	// machine's spill directory.
	Pager pager.Config
}

func (o *Options) fill() {
	if o.NormalLen == 0 {
		o.NormalLen = 128
	}
	if o.Dim == 0 {
		o.Dim = 16
	}
	if o.PhraseMin == 0 {
		o.PhraseMin = 15
	}
	if o.PhraseMax == 0 {
		o.PhraseMax = 30
	}
}

// Phrase is one indexed melody segment.
type Phrase struct {
	SongID int64
	// Ordinal is the phrase position within its song.
	Ordinal int
	Melody  music.Melody
}

// System is a query-by-humming search system. It is internally
// synchronized: queries, AddSong and snapshots may all run concurrently. The
// phrase index carries its own RWMutex (an AddSong write-locks it once per
// phrase, for one insert); the song/phrase metadata is guarded by a
// separate short-held RWMutex that no index work runs under.
type System struct {
	opts Options
	ix   *index.Index
	// space is the out-of-core page space when Options.Pager is enabled,
	// owned by this System and released by Close; nil in all-in-RAM mode.
	space *pager.Space

	// mu guards songs and phrases only. Lock ordering: mu is never held
	// across the index lock (index inserts happen after mu is released, the
	// query reads metadata after its search returns), so a writer waiting
	// for the index cannot stall metadata readers.
	mu      sync.RWMutex
	phrases []Phrase
	songs   map[int64]music.Song
	// order holds the song ids in the order they were added: Build's
	// input order, then one per AddSong. It is the sequence a replication
	// primary ships (Durable.SongsFrom), and a snapshot writes songs in it.
	order []int64
	// digest is Digest's value, kept as songs are added: the sum, mod
	// 2⁶⁴, of songHash over songs.
	digest uint64
	// nextID is the id AddSongTitled allocates: the smallest id strictly
	// greater than every song id (0 when empty).
	nextID int64
	// songOf is the lock-free phrase id → song id table the index's
	// distinct-song kNN consults. Written under mu and published before
	// the phrases it names reach the index; a published slice's elements
	// are never modified (AddSong appends beyond every earlier
	// publication's length), so a query reads it with no lock.
	songOf atomic.Pointer[[]int64]

	// epoch counts completed corpus mutations: AddSong bumps it after its
	// index inserts have all landed. The result cache tags entries with the
	// epoch read before execution and serves only tag-current entries — see
	// cache.go for the staleness argument.
	epoch atomic.Int64
	// cache, when non-nil, short-circuits QueryCtx for a query it has
	// answered before at the current epoch (EnableResultCache).
	cache atomic.Pointer[resultCache]
}

// publishSongOfLocked republishes songOf extended by the phrases registered
// since the last publication (mu held).
func (s *System) publishSongOfLocked() {
	var t []int64
	if cur := s.songOf.Load(); cur != nil {
		t = *cur
	}
	for _, ph := range s.phrases[len(t):] {
		t = append(t, ph.SongID)
	}
	s.songOf.Store(&t)
}

// Build constructs a system over the given songs. Songs are segmented into
// phrases, each phrase is normalized and indexed under the paper's New_PAA
// envelope transform (Section 3). An empty corpus is a valid starting state:
// a node may come up with nothing and be filled by uploads (qbhd -songs -1).
func Build(songs []music.Song, opts Options) (*System, error) {
	opts.fill()
	s := &System{opts: opts, songs: make(map[int64]music.Song)}

	var normals []ts.Series
	for _, song := range songs {
		if err := song.Melody.Validate(); err != nil {
			return nil, fmt.Errorf("qbh: song %d (%s): %w", song.ID, song.Title, err)
		}
		if _, dup := s.songs[song.ID]; dup {
			return nil, fmt.Errorf("qbh: duplicate song id %d", song.ID)
		}
		s.songs[song.ID] = song
		s.order = append(s.order, song.ID)
		s.digest += songHash(song)
		s.nextID = max(s.nextID, song.ID+1)
		for ord, ph := range music.SegmentPhrases(song.Melody, opts.PhraseMin, opts.PhraseMax) {
			s.phrases = append(s.phrases, Phrase{SongID: song.ID, Ordinal: ord, Melody: ph})
			normals = append(normals, s.Normalize(ph.TimeSeries()))
		}
	}
	s.publishSongOfLocked()

	var icfg index.Config
	var err error
	if opts.Pager.Enabled() {
		// The page size is widened so a normal-form series — the widest
		// record any column stores — fits one page.
		pcfg := opts.Pager
		pcfg.PageSize = pcfg.FitPageSize(opts.NormalLen)
		if s.space, err = pager.Open(pcfg); err != nil {
			return nil, fmt.Errorf("qbh: opening page space: %w", err)
		}
		icfg.Pager = s.space
	}
	entries := make([]index.Entry, len(normals))
	for i, nf := range normals {
		entries[i] = index.Entry{ID: int64(i), Series: nf}
	}
	// The index is STR bulk-loaded. Recovery builds the whole corpus through
	// here too: the snapshot's songs and the WAL tail's, together.
	if s.ix, err = index.BulkLoad(core.NewPAA(opts.NormalLen, opts.Dim), icfg, entries); err != nil {
		s.closeSpace()
		return nil, fmt.Errorf("qbh: indexing phrases: %w", err)
	}
	return s, nil
}

func (s *System) closeSpace() {
	if s.space != nil {
		_ = s.space.Close()
		s.space = nil
	}
}

// Close releases the index and, in paged mode, the page space (spill files
// stay on disk as garbage for the next Open to wipe; durability never
// depends on them). A RAM-only system's Close is a cheap no-op, so callers
// may close unconditionally.
func (s *System) Close() error {
	var err error
	if s.ix != nil {
		err = s.ix.Close()
	}
	if s.space != nil {
		if cerr := s.space.Close(); err == nil {
			err = cerr
		}
		s.space = nil
	}
	return err
}

// PoolStats reports the buffer-pool counters when the system runs
// out-of-core; ok is false for an all-in-RAM system.
func (s *System) PoolStats() (st pager.Stats, ok bool) {
	if s.space == nil {
		return pager.Stats{}, false
	}
	return s.space.Stats(), true
}

// AddSong indexes an additional song into a built system. AddSong may run
// concurrently with queries and with other AddSongs: the index is
// write-locked for one phrase insert at a time.
func (s *System) AddSong(song music.Song) error {
	_, err := s.addSong(song, false)
	return err
}

// AddSongTitled allocates the next free song id and indexes the melody
// under it, atomically with respect to all other operations: two concurrent
// uploads can never observe the same "next" id.
func (s *System) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	return s.addSong(music.Song{Title: title, Melody: melody}, true)
}

// addSong checks the song and computes every phrase's normal form first,
// then registers the song's metadata under mu, then indexes its phrases
// after mu is released — a phrase insert waiting for the index lock never
// stalls metadata readers. Metadata goes first so that by the time a phrase
// id can appear in index results, a query starting then can already resolve
// it. Every normal form has passed the index's own check before the song is
// registered, so no step after it can fail: a song lands whole or not at
// all.
func (s *System) addSong(song music.Song, allocateID bool) (music.Song, error) {
	if err := song.Melody.Validate(); err != nil {
		return music.Song{}, fmt.Errorf("qbh: song %d (%s): %w", song.ID, song.Title, err)
	}
	phs := music.SegmentPhrases(song.Melody, s.opts.PhraseMin, s.opts.PhraseMax)
	nfs := make([]ts.Series, len(phs))
	for i, ph := range phs {
		nfs[i] = s.Normalize(ph.TimeSeries())
		if err := s.ix.CheckSeries(nfs[i]); err != nil {
			return music.Song{}, fmt.Errorf("qbh: song %d (%s) phrase %d: %w", song.ID, song.Title, i, err)
		}
	}
	song, first, err := s.register(song, allocateID, phs)
	if err != nil {
		return music.Song{}, err
	}
	// The epoch bumps after every index insert has landed, so a cached
	// result can never outlive a completed mutation.
	defer s.bumpEpoch()
	for i, nf := range nfs {
		if err := s.ix.Add(first+int64(i), nf); err != nil {
			return music.Song{}, fmt.Errorf("qbh: indexing phrase %d: %w", first+int64(i), err)
		}
	}
	return song, nil
}

// register records the song and its phrases under mu — allocating the
// song's id first if asked — and returns the song with the phrase id of its
// first phrase.
func (s *System) register(song music.Song, allocateID bool, phs []music.Melody) (music.Song, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if allocateID {
		song.ID = s.nextID
	}
	if _, dup := s.songs[song.ID]; dup {
		return music.Song{}, 0, fmt.Errorf("qbh: duplicate song id %d", song.ID)
	}
	s.songs[song.ID] = song
	s.order = append(s.order, song.ID)
	s.digest += songHash(song)
	s.nextID = max(s.nextID, song.ID+1)
	first := int64(len(s.phrases))
	for ord, ph := range phs {
		s.phrases = append(s.phrases, Phrase{SongID: song.ID, Ordinal: ord, Melody: ph})
	}
	s.publishSongOfLocked()
	return song, first, nil
}

// songsInOrder returns the songs at positions [from, to) of the arrival
// order.
func (s *System) songsInOrder(from, to int64) []music.Song {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]music.Song, 0, to-from)
	for _, id := range s.order[from:to] {
		out = append(out, s.songs[id])
	}
	return out
}

// NumPhrases returns the number of indexed phrases.
func (s *System) NumPhrases() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.phrases)
}

// NumSongs returns the number of songs.
func (s *System) NumSongs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.songs)
}

// PhraseByID returns the phrase indexed under the given phrase id.
func (s *System) PhraseByID(id int64) (Phrase, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || int(id) >= len(s.phrases) {
		return Phrase{}, false
	}
	return s.phrases[id], true
}

// Songs returns the song database in id order.
func (s *System) Songs() []music.Song {
	s.mu.RLock()
	out := make([]music.Song, 0, len(s.songs))
	for _, song := range s.songs {
		out = append(out, song)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Normalize converts a raw query pitch series (silence already removed)
// into the system's normal form.
func (s *System) Normalize(pitch ts.Series) ts.Series {
	return pitch.NormalForm(s.opts.NormalLen)
}

// SongMatch is one ranked retrieval result. The JSON tags are the keys of
// a /query response's matches.
type SongMatch struct {
	SongID int64  `json:"song_id"`
	Title  string `json:"title"`
	// Dist is the banded DTW distance of the best-matching phrase.
	Dist float64 `json:"dist"`
	// PhraseOrdinal is the position of the matched phrase in the song.
	PhraseOrdinal int `json:"-"`
}

// Query returns the topK songs most similar to the hummed pitch series
// under banded DTW with warping width delta. The query pitch series should
// have silence removed (hum.StripSilence) and be at least a few samples
// long.
func (s *System) Query(pitch ts.Series, topK int, delta float64) ([]SongMatch, index.QueryStats) {
	songs, stats, _ := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{})
	return songs, stats
}

// QueryCtx is Query with cancellation and per-query work limits. The
// context is checked between candidate verifications; a cancelled query
// returns the songs ranked from the matches verified so far together with
// ctx.Err(). If lim.MaxExactDTW is reached, the ranking built within budget
// is returned and stats.Degraded is set. Queries never mutate the system,
// so any number may run concurrently.
func (s *System) QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]SongMatch, index.QueryStats, error) {
	if len(pitch) == 0 {
		return nil, index.QueryStats{}, nil
	}
	nf := s.Normalize(pitch)
	c := s.cache.Load()
	if c == nil {
		return s.queryNormal(ctx, nf, topK, delta, lim)
	}
	// The epoch is read before execution: if a mutation completes while
	// this query runs, the entry stored below carries a stale tag and can
	// never be served after that mutation returned. A hit skips the
	// envelope and the feature box too, and returns the stored verified
	// ranking with stats.Cached set; degraded or failed executions are
	// never cached.
	epoch := s.epoch.Load()
	key := cacheKey(nf, topK, delta)
	if songs, stats, ok := c.get(key, epoch); ok {
		stats.Cached = true
		return songs, stats, nil
	}
	songs, stats, err := s.queryNormal(ctx, nf, topK, delta, lim)
	if err == nil && !stats.Degraded {
		c.put(key, epoch, songs, stats)
	}
	return songs, stats, err
}

// queryNormal is the uncached ranked retrieval of the normal-form query
// nf: one kNN pass in which the index ranks songs, not phrases — it keeps
// the topK best distinct songs, each by its closest phrase, and prunes
// against the topK-th best song distance, so a song's many near-identical
// phrases cannot crowd the list and lim.MaxExactDTW bounds the whole query.
func (s *System) queryNormal(ctx context.Context, nf ts.Series, topK int, delta float64, lim index.Limits) ([]SongMatch, index.QueryStats, error) {
	p, err := s.ix.NewPlan(nf, delta)
	if err != nil {
		return nil, index.QueryStats{}, err
	}
	// addSong publishes songOf before ix.Add takes the index's write lock,
	// so every phrase the kNN meets under its read lock is in the latest
	// publication.
	lim.GroupOf = func(phrase int64) int64 { return (*s.songOf.Load())[phrase] }
	matches, stats, err := s.ix.KNNPlan(ctx, p, topK, lim)
	out := make([]SongMatch, 0, len(matches))
	s.mu.RLock()
	for _, m := range matches {
		ph := s.phrases[m.ID]
		out = append(out, SongMatch{SongID: ph.SongID, Title: s.songs[ph.SongID].Title, Dist: m.Dist, PhraseOrdinal: ph.Ordinal})
	}
	s.mu.RUnlock()
	return out, stats, err
}

// RankPhrase returns the 1-based rank of the target phrase among all
// indexed phrases for the query (the melody-level quality measure of
// Tables 2 and 3, where each database entry is one segmented melody), or 0
// if the phrase id is unknown.
func (s *System) RankPhrase(pitch ts.Series, phraseID int64, delta float64) int {
	nPhrases := s.NumPhrases()
	if phraseID < 0 || int(phraseID) >= nPhrases || len(pitch) == 0 {
		return 0
	}
	matches, _ := s.ix.KNN(s.Normalize(pitch), nPhrases, delta)
	for i, m := range matches {
		if m.ID == phraseID {
			return i + 1
		}
	}
	return 0
}

// Index exposes the underlying DTW index (read-only use).
func (s *System) Index() *index.Index { return s.ix }

// Stats hands add the /stats sections a System owns: "index" (its delta
// merges), "buffer_pool" in paged mode, "result_cache" when the cache is
// enabled. The layers above (Durable, replica.Node) call down and add their
// own.
func (s *System) Stats(add func(section string, v any)) {
	add("index", s.ix.MergeStats())
	if st, ok := s.PoolStats(); ok {
		add("buffer_pool", st)
	}
	if st, ok := s.CacheStats(); ok {
		add("result_cache", st)
	}
}
