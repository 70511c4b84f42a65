package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"warping/internal/music"
	"warping/internal/qbh"
)

// End-to-end cache contract: the first /query/pitch executes and is not
// marked cached, the identical repeat is served from cache with
// "cached": true and the same matches, /stats grows a result_cache block
// with a sane hit rate, and an upload invalidates the entry.
func TestQueryCachedMarker(t *testing.T) {
	songs := music.BuiltinSongs()
	sys, err := qbh.Build(songs, qbh.Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableResultCache(1 << 20)
	srv := httptest.NewServer(NewBackend(sys))
	t.Cleanup(srv.Close)

	pitch, err := json.Marshal([]float64(music.OdeToJoy().TimeSeries()))
	if err != nil {
		t.Fatal(err)
	}
	post := func() QueryResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query/pitch?top=3", "application/json", bytes.NewReader(pitch))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}

	first := post()
	if first.Cached {
		t.Fatal("first query marked cached")
	}
	if len(first.Matches) == 0 {
		t.Fatal("no matches for a builtin melody")
	}
	repeat := post()
	if !repeat.Cached {
		t.Fatal("repeat query not marked cached")
	}
	if len(repeat.Matches) != len(first.Matches) || repeat.Matches[0] != first.Matches[0] {
		t.Fatalf("cached matches diverge: %+v vs %+v", repeat.Matches, first.Matches)
	}

	var stats StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.ResultCache == nil {
		t.Fatal("/stats has no result_cache block with the cache enabled")
	}
	rc := stats.ResultCache
	if rc.Hits != 1 || rc.Misses != 1 || rc.Entries == 0 {
		t.Fatalf("result_cache = %+v, want 1 hit / 1 miss", rc)
	}
	if got := statsDoc(t, srv.URL)["result_cache"].(map[string]any)["hit_rate"]; got != 0.5 {
		t.Fatalf("hit_rate = %v, want 0.5", got)
	}

	// An upload bumps the corpus epoch: the same query re-executes.
	mid, err := sys.AddSongTitled("invalidator", music.TwinkleTwinkle())
	if err != nil {
		t.Fatal(err)
	}
	_ = mid
	after := post()
	if after.Cached {
		t.Fatal("query after upload served a stale cache entry")
	}
}

// A backend without the cache enabled has no result_cache block, and the
// hit_rate field never reports the pool's optimistic untouched value.
func TestStatsNoCacheBlockWhenDisabled(t *testing.T) {
	sys, err := qbh.Build(music.BuiltinSongs(), qbh.Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewBackend(sys))
	t.Cleanup(srv.Close)
	var stats StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.ResultCache != nil {
		t.Fatalf("result_cache present with cache disabled: %+v", stats.ResultCache)
	}
}
