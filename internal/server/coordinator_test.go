package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/store"
	"warping/internal/ts"
)

var clusterOpts = qbh.Options{PhraseMin: 8, PhraseMax: 20}

// clusterGroup is one replicated shard group running in-process.
type clusterGroup struct {
	spec    GroupSpec
	nodes   []*replica.Node
	servers []*httptest.Server
}

func (g *clusterGroup) close() {
	for _, srv := range g.servers {
		srv.Close()
	}
}

// startGroup brings up a primary plus followers, all built from the same
// base corpus with the same options, each serving the full API +
// replication endpoints.
func startGroup(t *testing.T, name string, base []music.Song, opts qbh.Options, followers int) *clusterGroup {
	t.Helper()
	g := &clusterGroup{spec: GroupSpec{Name: name}}
	openNode := func(cfg replica.NodeConfig) *replica.Node {
		dir := t.TempDir()
		d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
			FS:    store.OS(),
			Logf:  func(string, ...interface{}) {},
			Build: func() (*qbh.System, error) { return qbh.Build(base, opts) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := replica.NewNode(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		h := NewBackend(n)
		n.Mount(h)
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		g.nodes = append(g.nodes, n)
		g.servers = append(g.servers, srv)
		g.spec.Replicas = append(g.spec.Replicas, srv.URL)
		return n
	}
	openNode(replica.NodeConfig{Group: name, Role: replica.RolePrimary})
	for i := 0; i < followers; i++ {
		openNode(replica.NodeConfig{Group: name, Role: replica.RoleFollower, PrimaryURL: g.servers[0].URL})
	}
	return g
}

func testCoordinator(t *testing.T, groups ...*clusterGroup) *Coordinator {
	t.Helper()
	var specs []GroupSpec
	for _, g := range groups {
		specs = append(specs, g.spec)
	}
	c, err := NewCoordinator(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// ticklessCoordinator is a coordinator whose prober is stopped before its
// first tick: every replica counts as heard until the test calls
// failoverTick itself, so fakes that answer no state probe stay in play.
func ticklessCoordinator(t *testing.T, groups []GroupSpec) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(groups)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	return c
}

func hummedPitch(songs []music.Song, which int, seed int64) ts.Series {
	r := rand.New(rand.NewSource(seed))
	return hum.StripSilence(hum.GoodSinger().RenderPitch(songs[which%len(songs)].Melody, r))
}

// splitCorpus deals the catalogue into two disjoint halves.
func splitCorpus() (all, a, b []music.Song) {
	all = music.BuiltinSongs()
	for _, s := range music.GenerateSongs(91, 10, 100, 200) {
		s.ID += int64(len(music.BuiltinSongs()))
		all = append(all, s)
	}
	for i, s := range all {
		if i%2 == 0 {
			a = append(a, s)
		} else {
			b = append(b, s)
		}
	}
	return all, a, b
}

// The coordinator's /stats: songs counts the distinct ids over the groups
// (a song two groups hold counts once), phrases sums the groups' own
// counts, and a group with no reachable replica adds zero to both.
func TestCoordinatorStats(t *testing.T) {
	all, half, _ := splitCorpus()
	ga := startGroup(t, "a", all, clusterOpts, 0)
	gb := startGroup(t, "b", half, clusterOpts, 0)
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	gone := &clusterGroup{spec: GroupSpec{Name: "gone", Replicas: []string{down.URL}}}
	front := httptest.NewServer(NewBackend(testCoordinator(t, ga, gb, gone)))
	defer front.Close()

	type counts struct {
		Songs   int `json:"songs"`
		Phrases int `json:"phrases"`
	}
	var a, b, got counts
	getJSON(t, ga.servers[0].URL+"/stats", &a)
	getJSON(t, gb.servers[0].URL+"/stats", &b)
	getJSON(t, front.URL+"/stats", &got)
	if a.Songs != len(all) || b.Songs != len(half) || b.Phrases == 0 {
		t.Fatalf("groups hold %+v and %+v, want %d and %d songs", a, b, len(all), len(half))
	}
	if want := (counts{Songs: len(all), Phrases: a.Phrases + b.Phrases}); got != want {
		t.Errorf("coordinator /stats %+v, want %+v", got, want)
	}
}

// The coordinator holds no index options: whatever the replicas were built
// with, the merged ranking is the one a single node built with the same
// options over the union corpus gives — same songs, same tie order,
// bit-equal distances — and never degraded.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	all, half1, half2 := splitCorpus()
	normalLen64 := clusterOpts
	normalLen64.NormalLen = 64
	for _, tc := range []struct {
		name string
		opts qbh.Options
	}{
		{"default", clusterOpts},
		{"NormalLen64", normalLen64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, err := qbh.Build(all, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ga := startGroup(t, "a", half1, tc.opts, 1)
			gb := startGroup(t, "b", half2, tc.opts, 1)
			coord := testCoordinator(t, ga, gb)

			for q := 0; q < 12; q++ {
				pitch := hummedPitch(all, q*3, int64(100+q))
				want, _, err := single.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
				if err != nil {
					t.Errorf("query %d: %v", q, err)
					continue
				}
				if stats.Degraded {
					t.Errorf("query %d degraded with all groups up", q)
				}
				if len(got) != len(want) {
					t.Errorf("query %d: %d matches, single node had %d", q, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i].SongID != want[i].SongID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Errorf("query %d rank %d: got song %d dist %v, single node song %d dist %v",
							q, i, got[i].SongID, got[i].Dist, want[i].SongID, want[i].Dist)
						break
					}
				}
			}
		})
	}
}

// A coordinator's /songs lists the same rows — id, title and note count —
// as a standalone node over the same corpus.
func TestCoordinatorSongsMatchSingleNode(t *testing.T) {
	all, half1, half2 := splitCorpus()
	single, err := qbh.Build(all, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	standalone := httptest.NewServer(NewBackend(single))
	defer standalone.Close()
	front := httptest.NewServer(NewBackend(testCoordinator(t, startGroup(t, "a", half1, clusterOpts, 0), startGroup(t, "b", half2, clusterOpts, 0))))
	defer front.Close()

	rows := func(u string) []SongInfo {
		resp, err := http.Get(u + "/songs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []SongInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := rows(standalone.URL), rows(front.URL)
	if len(want) != len(all) {
		t.Fatalf("standalone lists %d songs, want %d", len(want), len(all))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator /songs\n  %v\nstandalone\n  %v", got, want)
	}
}

// A replica's 4xx other than 429 is the query's own fault: the error
// carries the replica's message, no sibling is asked in its place, and the
// next good query is answered in full.
func TestCoordinatorRejectedQueryDoesNotDarkenGroups(t *testing.T) {
	all, half1, half2 := splitCorpus()
	ga := startGroup(t, "a", half1, clusterOpts, 1)
	gb := startGroup(t, "b", half2, clusterOpts, 1)
	coord := testCoordinator(t, ga, gb)

	_, _, err := coord.QueryCtx(context.Background(), hummedPitch(all, 0, 1)[:5], 5, 0.1, index.Limits{})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "query too short: 5 voiced frames") {
		t.Fatalf("5-frame query: err %v, want the replica's 400 and its message", err)
	}
	if strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("a rejected query reported as an outage: %v", err)
	}
	got, stats, err := coord.QueryCtx(context.Background(), hummedPitch(all, 0, 1), 5, 0.1, index.Limits{})
	if err != nil || stats.Degraded || len(got) == 0 {
		t.Fatalf("good query after a rejected one: matches %v degraded %v err %v", got, stats.Degraded, err)
	}
}

// Through the coordinator's front a replica's 4xx is still a 4xx, with the
// replica's message: the client is told its request is wrong, not to retry
// it (the front used to answer 503 for every failed fan-out).
func TestCoordinatorFrontAnswersReplica4xx(t *testing.T) {
	sys, err := qbh.Build(music.BuiltinSongs(), clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	// A real replica handler with a tighter frame cap than the front's.
	strict := httptest.NewServer(testHandler(sys, func(l *limits) { l.maxPitchFrames = 50 }))
	defer strict.Close()
	// And a replica that rejects without a JSON body.
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusUnprocessableEntity)
	}))
	defer bare.Close()

	body, err := json.Marshal([]float64(hummedPitch(music.BuiltinSongs(), 0, 1)[:100]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		replica string
		status  int
		msg     string
	}{
		{strict.URL, http.StatusBadRequest, "query has 100 frames, cap is 50"},
		{bare.URL, http.StatusUnprocessableEntity, "Unprocessable Entity"},
	} {
		coord := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{tc.replica}}})
		front := httptest.NewServer(NewBackend(coord))
		resp, err := http.Post(front.URL+"/query/pitch?top=3", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		front.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || e.Error != tc.msg {
			t.Errorf("front answered %d %q, want the replica's %d %q", resp.StatusCode, e.Error, tc.status, tc.msg)
		}
	}
}

// A follower behind NewBackend refuses an upload with 421 and names its
// primary in Location, request path and query included, so the client can
// resend there as is.
func TestFollowerUpload421NamesPrimary(t *testing.T) {
	_, half1, _ := splitCorpus()
	g := startGroup(t, "a", half1, clusterOpts, 1)
	resp, err := http.Post(g.servers[1].URL+"/songs?title=Stray+Upload", "audio/midi", bytes.NewReader(testMIDI(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower answered %d, want 421", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Location"), g.servers[0].URL+"/songs?title=Stray+Upload"; got != want {
		t.Fatalf("Location %q, want %q", got, want)
	}
	// The primary itself takes the same request.
	resp, err = http.Post(resp.Header.Get("Location"), "audio/midi", bytes.NewReader(testMIDI(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("primary answered %d to the rerouted upload, want 201", resp.StatusCode)
	}
}

// The plan-shipping endpoint is gone from every role: a bare backend, a
// replica with its replication routes mounted, and a coordinator.
func TestQueryPlannedIsGone(t *testing.T) {
	_, half1, _ := splitCorpus()
	g := startGroup(t, "a", half1, clusterOpts, 1)
	sys, err := qbh.Build(half1, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	standalone := httptest.NewServer(NewBackend(sys))
	defer standalone.Close()
	front := httptest.NewServer(NewBackend(testCoordinator(t, g)))
	defer front.Close()
	for role, u := range map[string]string{
		"standalone": standalone.URL, "primary": g.servers[0].URL, "follower": g.servers[1].URL, "coordinator": front.URL,
	} {
		resp, err := http.Post(u+"/query/planned", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: POST /query/planned answered %d, want 404", role, resp.StatusCode)
		}
	}
}

func TestCoordinatorGroupDownReturnsPartialDegraded(t *testing.T) {
	_, half1, half2 := splitCorpus()
	ga := startGroup(t, "a", half1, clusterOpts, 0)
	gb := startGroup(t, "b", half2, clusterOpts, 0)
	coord := testCoordinator(t, ga, gb)

	gb.close() // the whole group goes down between two ticks

	pitch := hummedPitch(half1, 0, 7)
	got, stats, err := coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatalf("partial query errored: %v", err)
	}
	if !stats.Degraded {
		t.Fatal("whole group down but response not marked degraded")
	}
	if len(got) == 0 {
		t.Fatal("no partial results from the surviving group")
	}
	// The served HTTP response carries the degraded marker too.
	h := NewBackend(coord)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body, _ := json.Marshal([]float64(hummedPitch(half1, 0, 7)))
	resp, err := http.Post(srv.URL+"/query/pitch?top=5", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Degraded {
		t.Fatal("HTTP response not marked degraded")
	}

	// All groups down: that is an error, not an empty success.
	ga.close()
	if _, _, err := coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{}); err == nil {
		t.Fatal("all groups down but query succeeded")
	}
}

func TestCoordinatorWriteFindsPrimaryPast421(t *testing.T) {
	_, half1, _ := splitCorpus()
	g := startGroup(t, "a", half1, clusterOpts, 1)
	// List the follower first: the first write attempt gets 421 and the
	// coordinator must move on to the primary.
	g.spec.Replicas = []string{g.spec.Replicas[1], g.spec.Replicas[0]}
	coord := testCoordinator(t, g)

	before := g.nodes[0].NumSongs()
	song, err := coord.AddSongTitled("routed write", half1[0].Melody)
	if err != nil {
		t.Fatal(err)
	}
	if song.Title != "routed write" {
		t.Fatalf("echoed title %q", song.Title)
	}
	if got := g.nodes[0].NumSongs(); got != before+1 {
		t.Fatalf("primary has %d songs, want %d", got, before+1)
	}
	// The discovered primary is cached for the next write.
	coord.mu.Lock()
	cached := coord.primaries["a"]
	coord.mu.Unlock()
	if cached != g.servers[0].URL {
		t.Fatalf("cached primary %q, want %q", cached, g.servers[0].URL)
	}
}

func TestCoordinatorWriteHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/songs" {
			_ = json.NewEncoder(w).Encode([]SongInfo{}) // id allocator seed scan
			return
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			httpError(w, http.StatusTooManyRequests, "busy")
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]int{"applied": 1, "received": 1})
	}))
	defer fake.Close()

	coord := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{fake.URL}}})
	if _, err := coord.AddSongTitled("retry me", music.BuiltinSongs()[0].Melody); err != nil {
		t.Fatalf("write failed despite retry budget: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d attempts, want 2 (429 then success)", got)
	}
}

// importReplica is a fake single-replica group for the write path: GET
// /songs lists songs (the id allocator's seed scan), every import is
// counted and answered by reply, and anything else is a 404.
type importReplica struct {
	url     string
	imports atomic.Int32
}

func newImportReplica(t *testing.T, songs []SongInfo, reply http.HandlerFunc) *importReplica {
	t.Helper()
	f := &importReplica{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/songs":
			_ = json.NewEncoder(w).Encode(songs)
		case r.Method == http.MethodPost && r.URL.Path == replica.PathImport:
			f.imports.Add(1)
			reply(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	f.url = srv.URL
	return f
}

// A replica that rejects the import itself (400) is asked once: the
// request is at fault, so neither a retry nor a sibling would help, and
// the error names the group.
func TestCoordinatorWriteRejectedIsNotRetried(t *testing.T) {
	f := newImportReplica(t, nil, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad run", http.StatusBadRequest)
	})
	coord := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{f.url}}})
	_, err := coord.AddSongTitled("rejected", music.BuiltinSongs()[0].Melody)
	if err == nil || !strings.Contains(err.Error(), `group "g"`) || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err %v, want group \"g\"'s failed write with the replica's 400", err)
	}
	if n := f.imports.Load(); n != 1 {
		t.Fatalf("%d import attempts, want 1", n)
	}
}

// Ids are allocated over every group: while the second group answers no
// catalogue, a write fails naming that group, and no import is sent to
// either group.
func TestCoordinatorAllocationNeedsEveryGroup(t *testing.T) {
	ok := newImportReplica(t, []SongInfo{{ID: 3}}, func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]int{"applied": 1, "received": 1})
	})
	var downImports atomic.Int32
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == replica.PathImport {
			downImports.Add(1)
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	coord := ticklessCoordinator(t, []GroupSpec{
		{Name: "a", Replicas: []string{ok.url}},
		{Name: "b", Replicas: []string{down.URL}},
	})
	_, err := coord.AddSongTitled("no id", music.BuiltinSongs()[0].Melody)
	if err == nil || !strings.Contains(err.Error(), `id allocation: group "b" unreachable`) {
		t.Fatalf("err %v, want id allocation to fail on group \"b\"", err)
	}
	if n := ok.imports.Load() + downImports.Load(); n != 0 {
		t.Fatalf("%d imports sent without an id", n)
	}
}

// An import answered {"applied":0} is a retried write whose first reply
// was lost: the song is already there, so the write succeeds under the id
// the coordinator allocated, one past the catalogue's largest.
func TestCoordinatorWriteAlreadyApplied(t *testing.T) {
	f := newImportReplica(t, []SongInfo{{ID: 7}, {ID: 41}}, func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]int{"applied": 0, "received": 1})
	})
	logged := captureLog(t)
	coord := ticklessCoordinator(t, []GroupSpec{{Name: "g", Replicas: []string{f.url}}})
	song, err := coord.AddSongTitled("again", music.BuiltinSongs()[0].Melody)
	if err != nil {
		t.Fatal(err)
	}
	if song.ID != 42 || song.Title != "again" {
		t.Fatalf("song %d %q, want 42 \"again\"", song.ID, song.Title)
	}
	if n := f.imports.Load(); n != 1 {
		t.Fatalf("%d import attempts, want 1", n)
	}
	if !strings.Contains(logged.String(), `write 42 "again" was already applied`) {
		t.Fatalf("log %q does not report the already-applied write", logged.String())
	}
}

// One song from two groups at different distances, the farther group
// listed first: the merge keeps it once, at the smaller distance.
func TestCoordinatorMergeKeepsNearerCopy(t *testing.T) {
	far, near := newQueryReplica(t, oneMatch(5, "twice", 3)), newQueryReplica(t, oneMatch(5, "twice", 1.5))
	coord := ticklessCoordinator(t, []GroupSpec{
		{Name: "far", Replicas: []string{far.url}},
		{Name: "near", Replicas: []string{near.url}},
	})
	got, _, err := coord.QueryCtx(context.Background(), hummedPitch(music.BuiltinSongs(), 0, 3), 5, 0.1, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SongID != 5 || got[0].Dist != 1.5 {
		t.Fatalf("merged %v, want song 5 once at distance 1.5", got)
	}
}

// Equal-distance matches from different groups must rank exactly as a
// single node would — by (Dist, SongID) — no matter which group's response
// is appended to the union first. The group holding the larger SongID is
// listed first, so a Dist-only sort would leave it ahead; per-stage stats
// must sum across groups at the same time.
func TestCoordinatorMergeTieBreakDeterministic(t *testing.T) {
	mk := func(id int64, title string) *httptest.Server {
		resp, _ := json.Marshal(QueryResponse{
			Matches:    []qbh.SongMatch{{SongID: id, Title: title, Dist: 2.5}},
			QueryStats: index.QueryStats{Candidates: 5, CoarseSurvivors: 4, KeoghSurvivors: 3, ECSurvivors: 3, LBSurvivors: 2, ExactDTW: 2},
		})
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(resp)
		}))
	}
	hi := mk(9, "tied-hi")
	defer hi.Close()
	lo := mk(4, "tied-lo")
	defer lo.Close()

	coord := ticklessCoordinator(t, []GroupSpec{
		{Name: "a", Replicas: []string{hi.URL}},
		{Name: "b", Replicas: []string{lo.URL}},
	})
	pitch := hummedPitch(music.BuiltinSongs(), 0, 3)
	for trial := 0; trial < 4; trial++ {
		got, stats, err := coord.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].SongID != 4 || got[1].SongID != 9 {
			t.Fatalf("trial %d: merged order %v, want SongID 4 before 9 on the distance tie", trial, got)
		}
		want := index.QueryStats{Candidates: 10, CoarseSurvivors: 8, KeoghSurvivors: 6, ECSurvivors: 6, LBSurvivors: 4, ExactDTW: 4}
		if stats != want {
			t.Fatalf("trial %d: merged stats %+v, want per-stage sums %+v", trial, stats, want)
		}
	}
}
