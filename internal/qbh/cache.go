// Normalized-query result cache: hot QBH traffic repeats itself — the same
// recorded hum of a trending song arrives again and again — so verified
// rankings are cached under the exact identity of the query (cacheKey: the
// result size, the bits of the warping width and the bits of every
// normal-form sample). A hit is therefore exactly the ranking the query
// would compute at that epoch: the cache never trades the paper's
// no-false-dismissal answer for a neighbour's. Entries are invalidated
// wholesale by the corpus epoch and bounded by an LRU with byte accounting.
//
// Staleness safety rests on one ordering: the epoch is read BEFORE a query
// executes, the entry is stored tagged with that pre-execution epoch, and
// every mutation (AddSong) bumps the epoch only AFTER all of its index
// inserts have landed. A lookup serves an entry only when
// its tag equals the current epoch, so once a mutation has returned to its
// caller no result computed before (or during) it can ever be served again.
// Results computed concurrently with an in-flight mutation may be served
// until that mutation completes — exactly the window an uncached
// concurrent query has always had.
package qbh

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"math"
	"sync"

	"warping/internal/index"
	"warping/internal/ts"
)

// CacheStats reports the result cache's counters: the /stats
// "result_cache" section as it stands, present only when the backend was
// started with a cache budget.
type CacheStats struct {
	// Hits and Misses count lookups; an epoch-invalidated lookup counts as
	// both an invalidation and a miss.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidations counts entries dropped because the corpus epoch moved
	// past them.
	Invalidations int64 `json:"invalidations"`
	// Entries and Bytes describe the current cache contents; MaxBytes is
	// the configured budget.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups have occurred
// (a fresh cache has no hit rate, and reporting surfaces must never emit
// NaN).
func (c CacheStats) HitRate() float64 {
	if total := c.Hits + c.Misses; total > 0 {
		return float64(c.Hits) / float64(total)
	}
	return 0
}

// MarshalJSON adds the derived "hit_rate" to the counters.
func (c CacheStats) MarshalJSON() ([]byte, error) {
	type counters CacheStats
	return json.Marshal(struct {
		counters
		HitRate float64 `json:"hit_rate"`
	}{counters(c), c.HitRate()})
}

// cacheKey is the exact identity of a query: everything its ranking at one
// epoch is a function of, bit for bit. Two queries share a key only when
// they would compute the same answer.
func cacheKey(nf ts.Series, topK int, delta float64) string {
	b := make([]byte, 0, 8*(2+len(nf)))
	b = binary.LittleEndian.AppendUint64(b, uint64(topK))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(delta))
	for _, v := range nf {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// cacheEntry is one cached verified result set.
type cacheEntry struct {
	key   string
	epoch int64
	songs []SongMatch
	stats index.QueryStats
	bytes int64
}

// resultCache is a byte-bounded LRU keyed by exact query identity.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, invalidations int64
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key if it was stored at the current
// epoch. An entry from an older epoch is dropped (invalidation) and the
// lookup misses. The returned slice is a copy: callers own it.
func (c *resultCache) get(key string, epoch int64) ([]SongMatch, index.QueryStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, index.QueryStats{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return nil, index.QueryStats{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	songs := make([]SongMatch, len(e.songs))
	copy(songs, e.songs)
	return songs, e.stats, true
}

// put stores a verified result under key at the epoch read before its
// query executed, evicting least-recently-used entries past the byte
// budget. An entry larger than the whole budget is not stored, and neither
// is one older than the entry already under key: a query that ran across a
// mutation finishes after faster queries have stored post-mutation results,
// and must not replace them with its stale one.
func (c *resultCache) put(key string, epoch int64, songs []SongMatch, stats index.QueryStats) {
	e := &cacheEntry{key: key, epoch: epoch, stats: stats, bytes: entryBytes(key, songs)}
	if e.bytes > c.maxBytes {
		return
	}
	e.songs = make([]SongMatch, len(songs))
	copy(e.songs, songs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if el.Value.(*cacheEntry).epoch > epoch {
			return
		}
		c.removeLocked(el)
	}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back())
	}
}

func (c *resultCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
	}
}

// entryBytes approximates an entry's resident size: key bytes, slice
// headers and per-match struct + title, plus fixed map/list overhead.
func entryBytes(key string, songs []SongMatch) int64 {
	b := int64(len(key)) + 128
	for i := range songs {
		b += 48 + int64(len(songs[i].Title))
	}
	return b
}

// EnableResultCache switches the normalized-query result cache on with the
// given byte budget (<= 0 disables it). Safe to call at any time, also
// concurrently with queries: the cache pointer swaps atomically and a
// fresh cache starts empty.
func (s *System) EnableResultCache(maxBytes int64) {
	if maxBytes <= 0 {
		s.cache.Store(nil)
		return
	}
	s.cache.Store(newResultCache(maxBytes))
}

// CacheStats reports the result cache counters; ok is false when the cache
// is disabled.
func (s *System) CacheStats() (CacheStats, bool) {
	c := s.cache.Load()
	if c == nil {
		return CacheStats{}, false
	}
	return c.stats(), true
}

// bumpEpoch marks a corpus mutation complete, invalidating every cached
// result computed before (or concurrently with) it.
func (s *System) bumpEpoch() { s.epoch.Add(1) }
