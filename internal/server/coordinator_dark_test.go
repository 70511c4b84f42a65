package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/qbh"
)

// TestCoordinatorDarkGroupCache is the regression test for the per-group
// dark verdict cache: a never-responding group costs its timeout exactly
// once; while the verdict holds, queries skip the group (fast, degraded)
// instead of re-paying the timeout, and the background probe brings the
// group back once it answers again.
func TestCoordinatorDarkGroupCache(t *testing.T) {
	aliveResp, _ := json.Marshal(QueryResponse{
		Matches: []qbh.SongMatch{{SongID: 1, Title: "alive", Dist: 1}},
	})
	darkResp, _ := json.Marshal(QueryResponse{
		Matches: []qbh.SongMatch{{SongID: 2, Title: "recovered", Dist: 2}},
	})
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/stats" {
			_ = json.NewEncoder(w).Encode(StatsResponse{})
			return
		}
		_, _ = w.Write(aliveResp)
	}))
	defer alive.Close()

	// The dark group hangs until its request is cancelled; flipping
	// recovered makes it answer everything again.
	var recovered atomic.Bool
	dark := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !recovered.Load() {
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/stats" {
			_ = json.NewEncoder(w).Encode(StatsResponse{})
			return
		}
		_, _ = w.Write(darkResp)
	}))
	defer dark.Close()

	const timeout = 300 * time.Millisecond
	coord, err := NewCoordinator(CoordinatorConfig{
		Groups: []GroupSpec{
			{Name: "a", Replicas: []string{alive.URL}},
			{Name: "b", Replicas: []string{dark.URL}},
		},
		ReplicaTimeout: timeout,
		DarkTTL:        100 * time.Millisecond,
		Backoff:        testBackoff,
		Logf:           func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	pitch := hummedPitch(music.BuiltinSongs(), 0, 3)

	// First query pays the dark group's timeout and marks it dark.
	start := time.Now()
	got, stats, err := coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || len(got) != 1 || got[0].SongID != 1 {
		t.Fatalf("first query: degraded=%v matches=%v, want degraded partial from group a", stats.Degraded, got)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("first query returned in %v; expected to pay the %v timeout once", elapsed, timeout)
	}

	// While the verdict holds, queries skip the group: fast and degraded.
	start = time.Now()
	got, stats, err = coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Fatalf("second query took %v; the dark cache did not skip the group", elapsed)
	}
	if !stats.Degraded || len(got) != 1 || got[0].SongID != 1 {
		t.Fatalf("second query: degraded=%v matches=%v, want degraded partial from group a", stats.Degraded, got)
	}

	// Once the group answers again, the background probe clears the
	// verdict and full fan-out resumes.
	recovered.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, stats, err = coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Degraded && len(got) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group never came back from dark: degraded=%v matches=%v", stats.Degraded, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
