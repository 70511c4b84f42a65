package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/wav"
)

func newTestServer(t *testing.T) (*httptest.Server, []music.Song) {
	t.Helper()
	songs := music.BuiltinSongs()
	for _, s := range music.GenerateSongs(41, 30, 150, 250) {
		s.ID += int64(len(music.BuiltinSongs()))
		songs = append(songs, s)
	}
	sys, err := qbh.Build(songs, qbh.Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewBackend(sys))
	t.Cleanup(srv.Close)
	return srv, songs
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestStats(t *testing.T) {
	srv, songs := newTestServer(t)
	var stats StatsResponse
	resp := getJSON(t, srv.URL+"/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if stats.Songs != len(songs) || stats.Phrases == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSongsList(t *testing.T) {
	srv, songs := newTestServer(t)
	var list []SongInfo
	getJSON(t, srv.URL+"/songs", &list)
	if len(list) != len(songs) {
		t.Fatalf("got %d songs", len(list))
	}
	if list[0].Title != songs[0].Title || list[0].Notes == 0 {
		t.Errorf("first song = %+v", list[0])
	}
}

func TestQueryWAV(t *testing.T) {
	srv, songs := newTestServer(t)
	r := rand.New(rand.NewSource(42))
	audio := hum.GoodSinger().RenderAudio(songs[1].Melody, r)
	var buf bytes.Buffer
	if err := wav.Encode(&buf, audio, 8000); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/query?top=3&delta=0.1", "audio/wav", &buf)
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
	if len(qr.Matches) != 3 || qr.VoicedFrames == 0 || qr.PageAccesses == 0 {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Matches[0].SongID != songs[1].ID {
		t.Errorf("top match %+v, want song %d", qr.Matches[0], songs[1].ID)
	}
	// Every exact DTW verification is an LB survivor, and the server must
	// surface both counts of the query's one kNN pass.
	if qr.LBSurvivors != qr.ExactDTW {
		t.Errorf("LBSurvivors = %d, ExactDTW = %d; want equal", qr.LBSurvivors, qr.ExactDTW)
	}
}

func TestQueryPitch(t *testing.T) {
	srv, songs := newTestServer(t)
	r := rand.New(rand.NewSource(43))
	pitch := hum.GoodSinger().RenderPitch(songs[2].Melody, r)
	body, _ := json.Marshal([]float64(pitch))
	resp, err := http.Post(srv.URL+"/query/pitch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) == 0 || qr.Matches[0].SongID != songs[2].ID {
		t.Fatalf("response = %+v", qr)
	}
}

func TestAddSongThenQuery(t *testing.T) {
	srv, _ := newTestServer(t)
	// Upload a new tune as MIDI.
	tune := music.GenerateMelody(rand.New(rand.NewSource(44)), 60)
	data, err := midi.EncodeMelody(tune, 500000)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/songs?title=Fresh+Upload", "audio/midi", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info SongInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Title != "Fresh Upload" {
		t.Errorf("info = %+v", info)
	}
	// Query with a rendition of one phrase of the uploaded tune (the
	// database matches whole phrases).
	r := rand.New(rand.NewSource(45))
	phrase := music.SegmentPhrases(tune, 8, 20)[0]
	pitch := hum.GoodSinger().RenderPitch(phrase, r)
	body, _ := json.Marshal([]float64(pitch))
	qresp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != 1 || qr.Matches[0].SongID != info.ID {
		t.Fatalf("uploaded song not retrieved: %+v", qr)
	}
}

// TestHeldNoteUploadRefused: a 37-byte MIDI file of division 1 holding one
// note 0x0FFFFFFF ticks — 2^30 sixteenths, a time series of 8 GiB — is a
// 400, and the node then answers a hum.
func TestHeldNoteUploadRefused(t *testing.T) {
	srv, songs := newTestServer(t)
	held := []byte{
		'M', 'T', 'h', 'd', 0, 0, 0, 6, 0, 0, 0, 1, 0, 1,
		'M', 'T', 'r', 'k', 0, 0, 0, 15,
		0x00, 0x90, 0x3C, 0x40,
		0xFF, 0xFF, 0xFF, 0x7F, 0x80, 0x3C, 0x00,
		0x00, 0xFF, 0x2F, 0x00,
	}
	resp, err := http.Post(srv.URL+"/songs?title=Held", "audio/midi", bytes.NewReader(held))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload of a held note: status %d (%q), want 400", resp.StatusCode, e.Error)
	}
	body, _ := json.Marshal([]float64(songs[2].Melody.TimeSeries()))
	qresp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK || len(qr.Matches) != 1 || qr.Matches[0].SongID != songs[2].ID {
		t.Fatalf("hum after the refused upload: status %d, %+v", qresp.StatusCode, qr)
	}
}

func TestErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"stats wrong method", func() (*http.Response, error) {
			return http.Post(srv.URL+"/stats", "", nil)
		}, http.StatusMethodNotAllowed},
		{"query wrong method", func() (*http.Response, error) {
			return http.Get(srv.URL + "/query")
		}, http.StatusMethodNotAllowed},
		{"query bad wav", func() (*http.Response, error) {
			return http.Post(srv.URL+"/query", "audio/wav", bytes.NewReader([]byte("junk")))
		}, http.StatusBadRequest},
		{"query bad top", func() (*http.Response, error) {
			return http.Post(srv.URL+"/query?top=0", "audio/wav", bytes.NewReader(nil))
		}, http.StatusBadRequest},
		{"query bad delta", func() (*http.Response, error) {
			return http.Post(srv.URL+"/query?delta=7", "audio/wav", bytes.NewReader(nil))
		}, http.StatusBadRequest},
		{"pitch bad json", func() (*http.Response, error) {
			return http.Post(srv.URL+"/query/pitch", "application/json", bytes.NewReader([]byte("{")))
		}, http.StatusBadRequest},
		{"pitch too short", func() (*http.Response, error) {
			return http.Post(srv.URL+"/query/pitch", "application/json", bytes.NewReader([]byte("[60,60]")))
		}, http.StatusBadRequest},
		{"add song bad midi", func() (*http.Response, error) {
			return http.Post(srv.URL+"/songs", "audio/midi", bytes.NewReader([]byte("nope")))
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (error %q)", c.name, resp.StatusCode, c.status, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv, songs := newTestServer(t)
	r := rand.New(rand.NewSource(46))
	// Pre-render performances (rand.Rand is not goroutine-safe).
	bodies := make([][]byte, 8)
	for i := range bodies {
		pitch := hum.GoodSinger().RenderPitch(songs[i%5].Melody, r)
		bodies[i], _ = json.Marshal([]float64(pitch))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var qr QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				errs <- err
				return
			}
			if len(qr.Matches) != 1 {
				errs <- fmt.Errorf("request %d: %d matches", i, len(qr.Matches))
			}
		}(i, b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestQueryResponseJSONShape(t *testing.T) {
	// The wire format is part of the API contract: every counter in its
	// place, the in-process ones (frontier pushes, phrase ordinal) left out.
	data, err := json.Marshal(QueryResponse{
		Matches: []qbh.SongMatch{
			{SongID: 1, Title: "t", Dist: 2.5, PhraseOrdinal: 3},
			{SongID: 12, Title: `u "v"`, Dist: 1.0 / 3, PhraseOrdinal: 1},
		},
		VoicedFrames: 10,
		QueryStats: index.QueryStats{Candidates: 1, CoarseSurvivors: 2, KeoghSurvivors: 3, ECSurvivors: 9, LBSurvivors: 4,
			ExactDTW: 5, LogicalPages: 6, PageAccesses: 7, FrontierPushes: 8, Degraded: true, Cached: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"matches":[{"song_id":1,"title":"t","dist":2.5},{"song_id":12,"title":"u \"v\"","dist":0.3333333333333333}],` +
		`"voiced_frames":10,"candidates":1,"coarse_survivors":2,"keogh_survivors":3,"ec_survivors":9,"lb_survivors":4,"exact_dtw":5,` +
		`"logical_pages":6,"page_accesses":7,"degraded":true,"cached":true}`
	if string(data) != want {
		t.Errorf("JSON = %s\nwant   %s", data, want)
	}

	// An empty ranking is "matches":null, computed or served from the cache.
	sys, err := qbh.Build(nil, qbh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableResultCache(1 << 20)
	srv := httptest.NewServer(NewBackend(sys))
	defer srv.Close()
	for _, want := range []string{
		`{"matches":null,"voiced_frames":10,"candidates":0,"coarse_survivors":0,"keogh_survivors":0,"ec_survivors":0,"lb_survivors":0,"exact_dtw":0,"logical_pages":0,"page_accesses":0}`,
		`{"matches":null,"voiced_frames":10,"candidates":0,"coarse_survivors":0,"keogh_survivors":0,"ec_survivors":0,"lb_survivors":0,"exact_dtw":0,"logical_pages":0,"page_accesses":0,"cached":true}`,
	} {
		resp, err := http.Post(srv.URL+"/query/pitch", "application/json", strings.NewReader(`[60,62,64,65,67,69,71,72,74,76]`))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != want+"\n" {
			t.Errorf("empty ranking = %s\nwant           %s", got, want)
		}
	}
}
