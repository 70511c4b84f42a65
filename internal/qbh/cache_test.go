package qbh

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"warping/internal/index"
	"warping/internal/lru"
	"warping/internal/music"
	"warping/internal/ts"
)

// A repeated identical query must be served from cache (Cached: true,
// bit-identical results), and any corpus mutation must invalidate it.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	s, err := Build(testSongs(1, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableResultCache(1 << 20)
	pitch := music.OdeToJoy().TimeSeries()

	first, st1, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cached {
		t.Fatal("first query reported cached")
	}
	again, st2, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("repeat query not served from cache")
	}
	if len(again) != len(first) {
		t.Fatalf("cached result has %d matches, want %d", len(again), len(first))
	}
	for i := range again {
		if again[i] != first[i] {
			t.Fatalf("cached match %d = %+v, want %+v", i, again[i], first[i])
		}
	}
	cs, ok := s.CacheStats()
	if !ok || cs.Hits != 1 || cs.Misses != 1 || cs.Entries == 0 {
		t.Fatalf("cache stats after hit: %+v ok=%v", cs, ok)
	}

	// A mutation bumps the epoch; the same query misses, re-executes, and
	// the stale entry is counted as an invalidation.
	if _, err := s.AddSongTitled("new", music.TwinkleTwinkle()); err != nil {
		t.Fatal(err)
	}
	_, st3, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Fatal("query after mutation served stale cache entry")
	}
	cs, _ = s.CacheStats()
	if cs.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", cs)
	}

	// Different topK is a different key.
	_, st4, err := s.QueryCtx(context.Background(), pitch, 3, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st4.Cached {
		t.Fatal("different topK shared a cache entry")
	}
}

// The cache serves a query only its own answer. After hum A is cached, each
// near-duplicate A′ (a few hundredths of a semitone on every 7th frame) is
// answered as a cache-off system answers it, bit for bit and uncached; a
// repeat of A′ is then a hit with the same bits.
func TestResultCacheIsExact(t *testing.T) {
	songs := append(testSongs(1, 30), music.Song{ID: 1000, Title: "ode", Melody: music.OdeToJoy()})
	cached, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached.EnableResultCache(1 << 20)
	plain, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := func(s *System, pitch ts.Series) ([]SongMatch, index.QueryStats) {
		t.Helper()
		got, st, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	same := func(got, want []SongMatch) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].SongID != want[i].SongID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				return false
			}
		}
		return true
	}
	hum := music.OdeToJoy().TimeSeries()
	query(cached, hum)
	for j := 0; j < 20; j++ {
		near := append(ts.Series(nil), hum...)
		for i := j % 7; i < len(near); i += 7 {
			near[i] += 0.02 * float64(j%5+1)
		}
		want, _ := query(plain, near)
		got, st := query(cached, near)
		if st.Cached || !same(got, want) {
			t.Fatalf("near-duplicate %d: got %+v (cached %v), want %+v", j, got, st.Cached, want)
		}
		got, st = query(cached, near)
		if !st.Cached || !same(got, want) {
			t.Fatalf("repeat of near-duplicate %d: got %+v (cached %v), want %+v", j, got, st.Cached, want)
		}
	}
}

// A query that started before a mutation and finishes after a faster query
// stored the same key at the newer epoch must not clobber that entry.
func TestResultCachePutKeepsNewerEpoch(t *testing.T) {
	c := resultCache{lru.New[string, cacheEntry](1 << 20)}
	fresh := []SongMatch{{SongID: 2, Title: "fresh", Dist: 1}}
	c.put("k", 2, fresh, index.QueryStats{})
	c.put("k", 1, []SongMatch{{SongID: 1, Title: "stale", Dist: 1}}, index.QueryStats{})
	got, _, ok := c.get("k", 2)
	if !ok || len(got) != 1 || got[0] != fresh[0] {
		t.Fatalf("get(k, 2) = %+v, hit %v; want the epoch-2 entry", got, ok)
	}
	if st := c.lru.Stats(); st.Invalidations != 0 || st.Entries != 1 {
		t.Fatalf("stale put disturbed the cache: %+v", st)
	}
}

// The staleness race test: each round queries a melody the corpus lacks, so
// an answer without it is cached, then adds a song of that melody, while
// readers hammer the same query. The invariant pinned here is the epoch
// ordering — after AddSong returns, no cached result missing the song may be
// served. Run under -race this also proves the cache/epoch plumbing is
// data-race free against concurrent mutation.
func TestResultCacheNeverServesStale(t *testing.T) {
	s, err := Build(testSongs(2, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableResultCache(4 << 20)
	const rounds = 15
	// 20–30 notes: each melody is one phrase, so its own query is at distance 0.
	fresh := music.GenerateSongs(43, rounds, 20, 30)

	contains := func(ms []SongMatch, id int64) bool {
		for _, m := range ms {
			if m.SongID == id {
				return true
			}
		}
		return false
	}

	var cur atomic.Pointer[ts.Series]
	first := fresh[0].Melody.TimeSeries()
	cur.Store(&first)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Concurrent reads may race the in-flight mutation — both
				// outcomes are legal mid-mutation; this goroutine only
				// drives cache traffic under -race.
				if _, _, err := s.QueryCtx(context.Background(), *cur.Load(), 5, 0.1, index.Limits{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for round, f := range fresh {
		pitch := f.Melody.TimeSeries()
		cur.Store(&pitch)
		// Cache the answer of a corpus without the melody.
		if _, _, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{}); err != nil {
			t.Fatal(err)
		}
		song, err := s.AddSongTitled(fmt.Sprintf("fresh-%d", round), f.Melody)
		if err != nil {
			t.Fatal(err)
		}
		// AddSong has returned: a cached pre-add result is no longer
		// servable, so the exact-melody query must find the song.
		got, st, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !contains(got, song.ID) {
			t.Fatalf("round %d: query after AddSong missed song %d (cached=%v): %+v", round, song.ID, st.Cached, got)
		}
	}
	stop.Store(true)
	wg.Wait()
}
