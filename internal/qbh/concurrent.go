package qbh

import (
	"context"
	"io"

	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/ts"
)

// Concurrent is the narrowed read/ingest surface of a System that Durable
// and replica.Node embed: queries, catalogue reads, AddSong and Save, but
// not System.RemoveSong or Index(), so a mutation that bypasses the WAL is
// unreachable through a durable backend. The System is internally
// synchronized — the phrase index is sharded with one lock per shard and
// the song/phrase metadata sits behind its own short-held RWMutex — so
// every method is plain delegation: queries run in parallel with each
// other, with Save (which is read-pure) and with AddSongs that touch other
// shards. Nothing here drains in-flight queries.
type Concurrent struct {
	sys *System
}

// NewConcurrent wraps a built System. The caller must not keep using the
// inner System directly.
func NewConcurrent(sys *System) *Concurrent {
	return &Concurrent{sys: sys}
}

// Query ranks songs for the hummed pitch series.
func (c *Concurrent) Query(pitch ts.Series, topK int, delta float64) ([]SongMatch, index.QueryStats) {
	return c.sys.Query(pitch, topK, delta)
}

// QueryCtx is Query with cancellation and per-query work limits,
// concurrent with every other operation.
func (c *Concurrent) QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]SongMatch, index.QueryStats, error) {
	return c.sys.QueryCtx(ctx, pitch, topK, delta, lim)
}

// EnableResultCache switches the normalized-query result cache on; see
// System.EnableResultCache.
func (c *Concurrent) EnableResultCache(maxBytes int64) { c.sys.EnableResultCache(maxBytes) }

// CacheStats reports the result cache counters; ok is false when the
// cache is disabled.
func (c *Concurrent) CacheStats() (CacheStats, bool) { return c.sys.CacheStats() }

// NumSongs reports the number of songs.
func (c *Concurrent) NumSongs() int { return c.sys.NumSongs() }

// NumPhrases reports the number of indexed phrases.
func (c *Concurrent) NumPhrases() int { return c.sys.NumPhrases() }

// AddSong indexes a song under a caller-chosen id, write-locking only the
// shards that receive its phrases. For server-side uploads prefer
// AddSongTitled, which allocates the id atomically with the insert.
func (c *Concurrent) AddSong(song music.Song) error {
	return c.sys.AddSong(song)
}

// AddSongTitled allocates the next free song id and indexes the melody
// under it, atomically with respect to all other operations: two
// concurrent uploads can never observe the same "next" id.
func (c *Concurrent) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	return c.sys.AddSongTitled(title, melody)
}

// Save serializes the system. Save is read-pure, so it no longer takes an
// exclusive lock: in-flight queries keep making progress while a snapshot
// is being written (see TestSaveDoesNotBlockQueries).
func (c *Concurrent) Save(w io.Writer) error {
	return c.sys.Save(w)
}

// Songs returns the song database in id order.
func (c *Concurrent) Songs() []music.Song { return c.sys.Songs() }

// Close releases the wrapped system (index and, in paged mode, the buffer
// pool and spill files).
func (c *Concurrent) Close() error { return c.sys.Close() }

// PoolStats reports the buffer-pool counters when the system runs
// out-of-core; ok is false for an all-in-RAM system.
func (c *Concurrent) PoolStats() (pager.Stats, bool) { return c.sys.PoolStats() }

// ShardStats reports the index partition layout.
func (c *Concurrent) ShardStats() ShardStats { return c.sys.ShardStats() }
