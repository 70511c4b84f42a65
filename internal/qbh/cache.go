// Normalized-query result cache: hot QBH traffic repeats itself — the same
// recorded hum of a trending song arrives again and again — so verified
// rankings are cached under the exact identity of the query (cacheKey: the
// result size, the bits of the warping width and the bits of every
// normal-form sample). A hit is therefore exactly the ranking the query
// would compute at that epoch: the cache never trades the paper's
// no-false-dismissal answer for a neighbour's. Entries are invalidated
// wholesale by the corpus epoch and bounded by an LRU with byte accounting
// (internal/lru).
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
	"encoding/binary"
	"math"

	"warping/internal/index"
	"warping/internal/lru"
	"warping/internal/ts"
)

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

// cacheEntry is one cached verified result set, tagged with the epoch read
// before its query executed.
type cacheEntry struct {
	epoch int64
	songs []SongMatch
	stats index.QueryStats
}

// resultCache is the LRU of verified rankings under their cacheKey.
type resultCache struct {
	lru *lru.Cache[string, cacheEntry]
}

// get returns the cached result for key if it was stored at the current
// epoch. An entry from an older epoch is dropped (invalidation) and the
// lookup misses. The returned slice is a copy: callers own it.
func (c resultCache) get(key string, epoch int64) ([]SongMatch, index.QueryStats, bool) {
	e, ok := c.lru.Get(key, func(e cacheEntry) bool { return e.epoch == epoch })
	if !ok {
		return nil, index.QueryStats{}, false
	}
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
func (c resultCache) put(key string, epoch int64, songs []SongMatch, stats index.QueryStats) {
	e := cacheEntry{epoch: epoch, songs: make([]SongMatch, len(songs)), stats: stats}
	copy(e.songs, songs)
	c.lru.Put(key, e, entryBytes(key, songs), func(old cacheEntry) bool { return old.epoch <= epoch })
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
	s.cache.Store(&resultCache{lru.New[string, cacheEntry](maxBytes)})
}

// CacheStats reports the result cache counters; ok is false when the cache
// is disabled.
func (s *System) CacheStats() (lru.Stats, bool) {
	c := s.cache.Load()
	if c == nil {
		return lru.Stats{}, false
	}
	return c.lru.Stats(), true
}

// bumpEpoch marks a corpus mutation complete, invalidating every cached
// result computed before (or concurrently with) it.
func (s *System) bumpEpoch() { s.epoch.Add(1) }
