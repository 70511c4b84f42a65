package lru

import (
	"encoding/json"
	"sync"
	"testing"
)

// checkBytes fails t unless c is within its bound and its Bytes and Entries
// are the sum of its entries' sizes and their number.
func checkBytes[K comparable, V any](t *testing.T, c *Cache[K, V], when string) {
	t.Helper()
	st := c.Stats()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry[K, V]).size
	}
	if st.Bytes > st.MaxBytes || st.Bytes != sum || st.Entries != len(c.items) || st.Entries != c.ll.Len() {
		t.Fatalf("%s: %+v, entries sum to %d bytes, map holds %d", when, st, sum, len(c.items))
	}
}

// The bound holds after every Put, whatever the sizes, and the entry just
// stored is always found.
func TestBound(t *testing.T) {
	const bound = 3 * (8*100 + 128)
	c := New[int, string](bound)
	for i := 0; i < 20; i++ {
		c.Put(i, "v", 8*int64(50+7*i%60)+128, nil)
		if _, ok := c.Get(i, nil); !ok {
			t.Fatalf("entry %d not found right after its Put", i)
		}
		checkBytes(t, c, "after a put")
	}
}

// Eviction takes the least recently used entry first, and a Get makes an
// entry the most recently used.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](30)
	c.Put("a", 1, 10, nil)
	c.Put("b", 2, 10, nil)
	c.Put("c", 3, 10, nil)
	c.Get("a", nil) // b is now the oldest
	c.Put("d", 4, 10, nil)
	checkBytes(t, c, "after the fourth put")
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("b, the least recently used, survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k, nil); !ok {
			t.Fatalf("%s was evicted before b", k)
		}
	}
	// One entry of 25 bytes evicts all three of 10.
	c.Put("e", 5, 25, nil)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 25 {
		t.Fatalf("after a 25-byte put: %+v, want e alone", st)
	}
}

// An entry larger than the whole bound is not stored and evicts nothing.
func TestOversizeRefused(t *testing.T) {
	c := New[string, int](100)
	c.Put("small", 1, 60, nil)
	c.Put("big", 2, 101, nil)
	if _, ok := c.Get("big", nil); ok {
		t.Fatal("an entry larger than the bound was stored")
	}
	if v, ok := c.Get("small", nil); !ok || v != 1 {
		t.Fatalf("the oversize put disturbed the stored entry: %v %v", v, ok)
	}
	checkBytes(t, c, "after the oversize put")
}

// A Put over a stored key replaces the entry only when replace says so;
// with nil, the stored entry stays.
func TestReplace(t *testing.T) {
	c := New[string, int](100)
	c.Put("k", 1, 10, nil)
	c.Put("k", 2, 20, nil)
	if v, _ := c.Get("k", nil); v != 1 {
		t.Fatalf("a nil replace let %d replace 1", v)
	}
	c.Put("k", 3, 20, func(old int) bool { return old > 1 })
	if v, _ := c.Get("k", nil); v != 1 {
		t.Fatalf("a refusing replace let %d replace 1", v)
	}
	checkBytes(t, c, "after the refused puts")
	c.Put("k", 4, 20, func(old int) bool { return old == 1 })
	if v, _ := c.Get("k", nil); v != 4 {
		t.Fatalf("an accepting replace left %d, want 4", v)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 20 {
		t.Fatalf("after the replacement: %+v, want one 20-byte entry", st)
	}
}

// A stored entry that fresh rejects is dropped, and the lookup counts one
// invalidation and one miss; a later lookup finds nothing to invalidate.
func TestStaleDropped(t *testing.T) {
	c := New[string, int](100)
	c.Put("k", 1, 10, nil)
	if _, ok := c.Get("k", func(v int) bool { return v == 1 }); !ok {
		t.Fatal("a fresh entry missed")
	}
	if _, ok := c.Get("k", func(v int) bool { return v == 2 }); ok {
		t.Fatal("a stale entry was served")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after the stale lookup: %+v, want 1 hit, 1 miss, 1 invalidation, empty", st)
	}
	c.Get("k", func(int) bool { return false })
	if st := c.Stats(); st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("a lookup of an absent key: %+v, want 2 misses, 1 invalidation", st)
	}
}

// HitRate must be 0 (not NaN, not 1) before the first lookup — the
// reporting contract /stats depends on — and MarshalJSON adds it to the
// counters.
func TestStatsHitRate(t *testing.T) {
	var st Stats
	if got := st.HitRate(); got != 0 {
		t.Fatalf("fresh HitRate = %v, want 0", got)
	}
	st = Stats{Hits: 3, Misses: 1}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"hits":3,"misses":1,"invalidations":0,"entries":0,"bytes":0,"max_bytes":0,"hit_rate":0.75}`
	if string(b) != want {
		t.Fatalf("json %s, want %s", b, want)
	}
}

// Gets and Puts from many goroutines at once keep the bound and the byte
// accounting; run under -race this also proves the cache's locking.
func TestConcurrent(t *testing.T) {
	c := New[int, []int](200)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 40
				if v, ok := c.Get(k, func(v []int) bool { return len(v) == 1 }); ok && v[0] != k {
					t.Errorf("key %d holds %d", k, v[0])
				}
				c.Put(k, []int{k}, int64(10+k%5), func([]int) bool { return i%2 == 0 })
			}
		}(g)
	}
	wg.Wait()
	checkBytes(t, c, "after the concurrent run")
	if st := c.Stats(); st.Hits+st.Misses != 8*500 {
		t.Fatalf("%+v, want %d lookups", st, 8*500)
	}
}
