package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/replica"
)

// fakeReplica answers PathState with a fixed state and PathPromote with
// 200, counting both; its role does not change on promotion.
type fakeReplica struct {
	url                string
	probes, promotions atomic.Int32
}

func newFakeReplica(t *testing.T, role replica.Role, epoch, seq int64) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case replica.PathState:
			f.probes.Add(1)
			_ = json.NewEncoder(w).Encode(replica.StateResponse{Status: replica.Status{Role: role, Epoch: epoch, Seq: seq}})
		case replica.PathPromote:
			f.promotions.Add(1)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	f.url = srv.URL
	return f
}

// TestCoordinatorElectsFollower drives failoverTick directly, tick by tick,
// over five groups: a dead primary beside a live follower, a live primary,
// three replicas with no primary, two primaries at different epochs, and a
// single replica, which is probed like the rest and never promoted.
func TestCoordinatorElectsFollower(t *testing.T) {
	// A dead primary answers nothing usable (a closed listener's port could
	// be handed to another server).
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	dead := down.URL

	orphan := newFakeReplica(t, replica.RoleFollower, 1, 40)
	primary, follower := newFakeReplica(t, replica.RolePrimary, 1, 50), newFakeReplica(t, replica.RoleFollower, 1, 50)
	trio := []*fakeReplica{newFakeReplica(t, replica.RoleFollower, 1, 30), newFakeReplica(t, replica.RoleFollower, 1, 31)}
	older, newer := newFakeReplica(t, replica.RolePrimary, 2, 900), newFakeReplica(t, replica.RolePrimary, 5, 10)
	single := newFakeReplica(t, replica.RoleFollower, 1, 1)

	groups := []GroupSpec{
		{Name: "dead-primary", Replicas: []string{dead, orphan.url}},
		{Name: "live-primary", Replicas: []string{primary.url, follower.url}},
		{Name: "trio", Replicas: []string{dead, trio[0].url, trio[1].url}},
		{Name: "two-primaries", Replicas: []string{older.url, newer.url}},
		{Name: "single", Replicas: []string{single.url}},
	}
	c := ticklessCoordinator(t, groups)

	watch := make(map[string]*groupWatch)
	for tick := 1; tick <= 3*failoverMissed; tick++ {
		c.failoverTick(context.Background(), watch)
		want := int32(0)
		if tick >= failoverMissed {
			want = 1
		}
		if got := orphan.promotions.Load(); got != want {
			t.Fatalf("after silent tick %d the follower was promoted %d times, want %d", tick, got, want)
		}
	}
	if got := c.writeOrder(groups[0])[0]; got != orphan.url {
		t.Errorf("dead-primary writes go first to %s, want the promoted follower %s", got, orphan.url)
	}
	if n := follower.promotions.Load() + primary.promotions.Load(); n != 0 {
		t.Errorf("a group with a live primary saw %d promotions", n)
	}
	if n := trio[0].promotions.Load() + trio[1].promotions.Load(); n != 0 {
		t.Errorf("a three-replica group saw %d promotions", n)
	}
	if got := c.writeOrder(groups[3])[0]; got != newer.url {
		t.Errorf("with two primaries writes go first to %s, want the higher epoch's %s", got, newer.url)
	}
	if n := single.probes.Load(); n != 3*failoverMissed {
		t.Errorf("a single-replica group received %d state probes in %d ticks", n, 3*failoverMissed)
	}
	if n := single.promotions.Load(); n != 0 {
		t.Errorf("a single-replica group saw %d promotions", n)
	}
}

// A promotion the follower refuses (500) is logged, caches no primary for
// the group, and is not tried again by the quick ticks that follow within
// 2 × failoverMissed ticks.
func TestCoordinatorFailedPromotion(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	var promotions atomic.Int32
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case replica.PathState:
			_ = json.NewEncoder(w).Encode(replica.StateResponse{Status: replica.Status{Role: replica.RoleFollower, Epoch: 1, Seq: 9}})
		case replica.PathPromote:
			promotions.Add(1)
			http.Error(w, "cannot promote", http.StatusInternalServerError)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(follower.Close)
	logged := captureLog(t)
	c := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{down.URL, follower.URL}}})

	watch := make(map[string]*groupWatch)
	for tick := 1; tick <= 3*failoverMissed; tick++ {
		c.failoverTick(context.Background(), watch)
	}
	if n := promotions.Load(); n != 1 {
		t.Fatalf("%d promotion attempts in %d quick ticks, want 1", n, 3*failoverMissed)
	}
	if !strings.Contains(logged.String(), "coordinator: promoting "+follower.URL+" failed") {
		t.Fatalf("log %q does not report the failed promotion", logged.String())
	}
	c.mu.Lock()
	cached, ok := c.primaries["g"]
	c.mu.Unlock()
	if ok {
		t.Fatalf("a refused promotion cached %q as the group's primary", cached)
	}
}

// Placement without a ring: 10 000 titles hash over three groups with none
// holding less than 15 % or more than 55 % of them.
func TestPlacementBalance(t *testing.T) {
	c := ticklessCoordinator(t, []GroupSpec{{Name: "a", Replicas: []string{"http://a"}}, {Name: "b", Replicas: []string{"http://b"}}, {Name: "c", Replicas: []string{"http://c"}}})
	const titles = 10000
	count := map[string]int{}
	for i := 0; i < titles; i++ {
		count[c.owner(fmt.Sprintf("song %d", i)).Name]++
	}
	for _, g := range []string{"a", "b", "c"} {
		if share := float64(count[g]) / titles; share < 0.15 || share > 0.55 {
			t.Errorf("group %s holds %.1f%% of the titles (%v)", g, 100*share, count)
		}
	}
}

// queryReplica is a fake group member that counts the POST /query/pitch
// requests it gets. It answers its state probe as a follower and a query
// with its canned response, except that a mute one answers the probe 503,
// a failing one answers a query 503, and a hung one answers nothing until
// the caller gives up.
type queryReplica struct {
	url                 string
	mute, hung, failing atomic.Bool
	queries             atomic.Int32
}

func newQueryReplica(t *testing.T, resp QueryResponse) *queryReplica {
	t.Helper()
	canned, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	f := &queryReplica{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/query/pitch" {
			f.queries.Add(1)
		}
		switch {
		case f.hung.Load():
			<-r.Context().Done()
		case r.URL.Path == replica.PathState && f.mute.Load(),
			r.URL.Path == "/query/pitch" && f.failing.Load():
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		case r.URL.Path == replica.PathState:
			_ = json.NewEncoder(w).Encode(replica.StateResponse{Status: replica.Status{Role: replica.RoleFollower}})
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(canned)
		}
	}))
	t.Cleanup(srv.Close)
	f.url = srv.URL
	return f
}

func oneMatch(id int64, title string, dist float64) QueryResponse {
	return QueryResponse{Matches: []qbh.SongMatch{{SongID: id, Title: title, Dist: dist}}}
}

// A replica the last tick did not hear gets no query, whichever replica
// the rotation starts at; its sibling answers every one in full.
func TestCoordinatorSkipsSilentReplica(t *testing.T) {
	mute, voice := newQueryReplica(t, oneMatch(1, "mute", 1)), newQueryReplica(t, oneMatch(7, "voice", 1))
	mute.mute.Store(true)
	c := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{mute.url, voice.url}}})
	c.failoverTick(context.Background(), map[string]*groupWatch{})

	pitch := hummedPitch(music.BuiltinSongs(), 0, 3)
	for q := 0; q < 4; q++ {
		got, stats, err := c.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Degraded || len(got) != 1 || got[0].SongID != 7 {
			t.Fatalf("query %d: degraded=%v matches=%v, want the heard sibling's song 7", q, stats.Degraded, got)
		}
	}
	if n := mute.queries.Load(); n != 0 {
		t.Fatalf("the silent replica received %d queries", n)
	}
	if n := voice.queries.Load(); n != 4 {
		t.Fatalf("the heard replica received %d of 4 queries", n)
	}
}

// A group none of whose replicas the last tick heard gets no request: the
// answer is the other groups' matches, degraded, at once rather than after
// replicaTimeout. After a tick hears the group again the answer is whole.
func TestCoordinatorSilentGroupDegradedUntilHeard(t *testing.T) {
	alive, gone := newQueryReplica(t, oneMatch(1, "alive", 1)), newQueryReplica(t, oneMatch(2, "back", 2))
	gone.hung.Store(true)
	c := ticklessCoordinator(t, []GroupSpec{
		{Name: "a", Replicas: []string{alive.url}},
		{Name: "b", Replicas: []string{gone.url}},
	})
	c.failoverTick(context.Background(), map[string]*groupWatch{})
	pitch := hummedPitch(music.BuiltinSongs(), 0, 3)

	start := time.Now()
	got, stats, err := c.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > replicaTimeout/5 {
		t.Fatalf("query over a silent group took %v (replica timeout %v)", elapsed, replicaTimeout)
	}
	if !stats.Degraded || len(got) != 1 || got[0].SongID != 1 {
		t.Fatalf("silent group: degraded=%v matches=%v, want degraded song 1 alone", stats.Degraded, got)
	}
	if n := gone.queries.Load(); n != 0 {
		t.Fatalf("the silent group received %d queries", n)
	}

	gone.hung.Store(false)
	c.failoverTick(context.Background(), map[string]*groupWatch{})
	got, stats, err = c.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded || len(got) != 2 {
		t.Fatalf("group heard again: degraded=%v matches=%v, want both songs", stats.Degraded, got)
	}
}

// When the group's first replica fails with 503 the query moves on to the
// second, and only the second's response reaches the merge: its matches
// and its stats alone.
func TestCoordinatorFailoverCountsStatsOnce(t *testing.T) {
	want := index.QueryStats{Candidates: 42, CoarseSurvivors: 30, KeoghSurvivors: 20, LBSurvivors: 10, ExactDTW: 10}
	failing := newQueryReplica(t, QueryResponse{
		Matches:    []qbh.SongMatch{{SongID: 1, Title: "failing", Dist: 1}},
		QueryStats: index.QueryStats{Candidates: 999, CoarseSurvivors: 999, KeoghSurvivors: 999, LBSurvivors: 999, ExactDTW: 999},
	})
	failing.failing.Store(true)
	good := newQueryReplica(t, QueryResponse{Matches: []qbh.SongMatch{{SongID: 7, Title: "good", Dist: 2}}, QueryStats: want})
	c := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{failing.url, good.url}}})
	c.failoverTick(context.Background(), map[string]*groupWatch{})
	// Pin the rotation so the failing replica is asked first.
	c.rr.Store(uint64(len(c.groups[0].Replicas) - 1))

	got, stats, err := c.QueryCtx(context.Background(), hummedPitch(music.BuiltinSongs(), 0, 3), 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if n := failing.queries.Load(); n != 1 {
		t.Fatalf("the failing replica was asked %d times, want 1", n)
	}
	if len(got) != 1 || got[0].SongID != 7 {
		t.Fatalf("matches %v, want the second replica's alone", got)
	}
	if stats != want {
		t.Fatalf("merged stats %+v, want the second replica's alone %+v", stats, want)
	}
}

// Probes run at once, each within failoverInterval: a tick over three hung
// replicas returns within two intervals and hears none of them.
func TestCoordinatorTickBoundedByHungReplicas(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		f := newQueryReplica(t, QueryResponse{})
		f.hung.Store(true)
		urls = append(urls, f.url)
	}
	c := ticklessCoordinator(t, []GroupSpec{{Name: "trio", Replicas: urls}})
	start := time.Now()
	c.failoverTick(context.Background(), map[string]*groupWatch{})
	if elapsed := time.Since(start); elapsed >= 2*failoverInterval {
		t.Fatalf("a tick over three hung replicas took %v, want under %v", elapsed, 2*failoverInterval)
	}
	for _, u := range urls {
		if !c.silent[u] {
			t.Errorf("hung replica %s counted as heard", u)
		}
	}
}
