// Package lru is the byte-bounded least-recently-used cache behind the
// result cache of verified rankings (internal/qbh) and the handler's pitch
// memo (internal/server). The two differ only in when an entry may be
// served and when it may be replaced, which their owners decide through
// the fresh and replace functions of Get and Put.
package lru

import (
	"container/list"
	"encoding/json"
	"sync"
)

// Cache maps keys to values under a byte bound: the sizes its owner gives
// the entries never sum past it. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[K]*list.Element

	hits, misses, invalidations int64
}

// entry is one stored value with its key and its size.
type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an empty cache that holds at most maxBytes of entries.
func New[K comparable, V any](maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{maxBytes: maxBytes, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
// When fresh is not nil and reports false for the stored value, the entry
// is dropped, and the lookup counts as an invalidation and misses. fresh
// runs under the cache's lock and must not call into the cache.
func (c *Cache[K, V]) Get(key K, fresh func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok && fresh != nil && !fresh(el.Value.(*entry[K, V]).val) {
		c.removeLocked(el)
		c.invalidations++
		ok = false
	}
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v, of the given size, under key as the most recently used
// entry, and evicts the least recently used entries past the bound. An
// entry larger than the whole bound is not stored. When key already holds
// an entry, v replaces it only if replace is not nil and reports true for
// the stored value; otherwise the stored entry is kept. replace runs under
// the cache's lock and must not call into the cache.
func (c *Cache[K, V]) Put(key K, v V, size int64, replace func(old V) bool) {
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if replace == nil || !replace(el.Value.(*entry[K, V]).val) {
			return
		}
		c.removeLocked(el)
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back())
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Stats returns the cache's counters and contents.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
	}
}

// Stats is a cache's /stats section: "result_cache" for the result cache,
// "pitch_memo" for the pitch memo.
type Stats struct {
	// Hits and Misses count lookups; a lookup that finds a stale entry
	// counts as both an invalidation and a miss.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidations counts entries dropped because they went stale. The
	// pitch memo's never do, so its count is always 0.
	Invalidations int64 `json:"invalidations"`
	// Entries and Bytes describe the current contents; MaxBytes is the
	// bound.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup: a
// fresh cache has no hit rate, and reporting surfaces must never emit NaN.
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// MarshalJSON adds the derived "hit_rate" to the counters.
func (s Stats) MarshalJSON() ([]byte, error) {
	type counters Stats
	return json.Marshal(struct {
		counters
		HitRate float64 `json:"hit_rate"`
	}{counters(s), s.HitRate()})
}
