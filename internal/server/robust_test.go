package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"warping/internal/audio"
	"warping/internal/hum"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/wav"
)

// newRobustServer builds a handler with explicit limits and returns it
// alongside the test server so tests can reach unexported knobs.
func newRobustServer(t *testing.T, cfg Config) (*Handler, *httptest.Server, []music.Song) {
	t.Helper()
	songs := music.BuiltinSongs()
	sys, err := qbh.Build(songs, qbh.Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	h := NewBackend(sys, cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return h, srv, songs
}

func pitchBody(t *testing.T, songs []music.Song, seed int64) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pitch := hum.GoodSinger().RenderPitch(songs[0].Melody, r)
	body, err := json.Marshal([]float64(pitch))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestZeroConfigDefaults pins the limits a zero Config fills to: qbhd hands
// NewBackend exactly that, so these are the only values it serves with.
func TestZeroConfigDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		var c Config
		c.fill()
		want := Config{
			MaxConcurrent:  max(procs, 2),
			QueueTimeout:   2 * time.Second,
			QueryTimeout:   15 * time.Second,
			MaxExactDTW:    100000,
			MaxBodyBytes:   16 << 20,
			MaxPitchFrames: 60000,
		}
		if c != want {
			t.Errorf("GOMAXPROCS %d: zero Config fills to %+v, want %+v", procs, c, want)
		}
	}
	// A negative budget means unlimited: index.Limits' zero.
	c := Config{MaxExactDTW: -1}
	c.fill()
	if c.MaxExactDTW != 0 {
		t.Errorf("MaxExactDTW -1 fills to %d, want 0 (unlimited)", c.MaxExactDTW)
	}
}

func TestAdmissionControl429(t *testing.T) {
	h, srv, songs := newRobustServer(t, Config{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	inHook := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h.candidateHook = func() {
		once.Do(func() {
			close(inHook)
			<-release
		})
	}

	body := pitchBody(t, songs, 46)
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		defer resp.Body.Close()
		firstDone <- resp.StatusCode
	}()

	// Wait until the first query holds the only admission slot.
	select {
	case <-inHook:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never reached verification")
	}

	// The slot is occupied: a second query must be shed with 429.
	resp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first query finished with %d, want 200", code)
	}
}

func TestQueryDeadline503(t *testing.T) {
	h, srv, songs := newRobustServer(t, Config{QueryTimeout: 30 * time.Millisecond})
	h.candidateHook = func() { time.Sleep(10 * time.Millisecond) }
	start := time.Now()
	resp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(pitchBody(t, songs, 47)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed-out query took %v", elapsed)
	}
}

func TestDegradedResponse(t *testing.T) {
	_, srv, songs := newRobustServer(t, Config{MaxExactDTW: 1})
	resp, err := http.Post(srv.URL+"/query/pitch?top=3", "application/json", bytes.NewReader(pitchBody(t, songs, 48)))
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
	if !qr.Degraded {
		t.Error("budget-capped query not marked degraded")
	}
	if qr.ExactDTW > 1 {
		t.Errorf("ExactDTW = %d with budget 1", qr.ExactDTW)
	}
}

func TestOversizedBody413(t *testing.T) {
	_, srv, _ := newRobustServer(t, Config{MaxBodyBytes: 1024})
	big := bytes.Repeat([]byte("a"), 4096)
	// /query/pitch parses JSON incrementally, so the body must be valid
	// JSON long enough to cross the cap before the parser can object.
	bigJSON := []byte("[" + string(bytes.Repeat([]byte("60,"), 2000)) + "60]")
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/query", big},
		{"/query/pitch", bigJSON},
		{"/songs", big},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/octet-stream", bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", c.path, resp.StatusCode)
		}
	}
}

func TestPitchValidation(t *testing.T) {
	_, srv, _ := newRobustServer(t, Config{MaxPitchFrames: 100})
	long := make([]float64, 200)
	for i := range long {
		long[i] = 60
	}
	body, _ := json.Marshal(long)
	resp, err := http.Post(srv.URL+"/query/pitch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap pitch array: status %d, want 400", resp.StatusCode)
	}
	// Non-finite values cannot arrive through strict JSON, but the
	// validator must still reject them (defense in depth for future
	// ingestion paths).
	if err := validatePitch([]float64{60, math.NaN()}, 100); err == nil {
		t.Error("NaN accepted")
	}
	if err := validatePitch([]float64{60, math.Inf(1)}, 100); err == nil {
		t.Error("+Inf accepted")
	}
	if err := validatePitch([]float64{60, 62, 64}, 100); err != nil {
		t.Errorf("valid pitch rejected: %v", err)
	}
}

// A huge finite pitch value among normal frames is a 400 naming the bound.
// It used to reach the index, overflow the distance to +Inf, and come back
// as a 200 with an empty body. Values at the bound are served.
func TestPitchCeiling(t *testing.T) {
	_, srv, _ := newRobustServer(t, Config{})
	post := func(v float64) *http.Response {
		t.Helper()
		frames := make([]float64, 40)
		for i := range frames {
			frames[i] = 60 + float64(i%5)
		}
		frames[17] = v
		body, err := json.Marshal(frames)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/query/pitch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, v := range []float64{1e200, 1e300, 1e308, -1e308, maxPitch + 0.5} {
		resp := post(v)
		want := fmt.Sprintf("pitch value %g at frame 17 is beyond ±%d", v, maxPitch)
		if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || msg != want {
			t.Errorf("pitch %g: %d %q, want 400 %q", v, resp.StatusCode, msg, want)
		}
	}
	for _, v := range []float64{maxPitch, -maxPitch} {
		resp := post(v)
		var qr QueryResponse
		err := json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(qr.Matches) == 0 {
			t.Errorf("pitch %g: %d, %d matches, decode error %v", v, resp.StatusCode, len(qr.Matches), err)
		}
	}
}

// A response JSON cannot hold is a 500 with a JSON error body, not a 200
// with none: writeJSON marshals before it writes.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"dist": math.Inf(1)})
	var e errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); rec.Code != http.StatusInternalServerError || err != nil ||
		!strings.HasPrefix(e.Error, "encoding response: ") {
		t.Errorf("status %d, error %q (decode %v), want 500 and an encoding error", rec.Code, e.Error, err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, SongInfo{ID: 3, Title: "x"})
	if got := rec.Body.String(); rec.Code != http.StatusCreated || got != "{\"id\":3,\"title\":\"x\",\"notes\":0}\n" {
		t.Errorf("status %d, body %q", rec.Code, got)
	}
}

func TestPanicRecovery(t *testing.T) {
	h, srv, songs := newRobustServer(t, Config{})
	h.candidateHook = func() { panic("injected fault") }
	resp, err := http.Post(srv.URL+"/query/pitch?top=1", "application/json", bytes.NewReader(pitchBody(t, songs, 49)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	// The process (and handler) must keep serving after the panic.
	h.candidateHook = nil
	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic /stats status %d", resp2.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	h, srv, _ := newRobustServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	h.SetReady(false)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	// Liveness is unaffected by draining.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz: status %d, want 200", resp2.StatusCode)
	}
}

// TestConcurrentUploadsUniqueIDs is the server-level TOCTOU regression
// test: parallel POST /songs must produce distinct ids.
func TestConcurrentUploadsUniqueIDs(t *testing.T) {
	_, srv, _ := newRobustServer(t, Config{MaxConcurrent: 8})
	const uploads = 8
	bodies := make([][]byte, uploads)
	for i := range bodies {
		tune := music.GenerateMelody(rand.New(rand.NewSource(int64(400+i))), 40)
		data, err := midi.EncodeMelody(tune, 500000)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}
	ids := make(chan int64, uploads)
	var wg sync.WaitGroup
	for i := 0; i < uploads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(fmt.Sprintf("%s/songs?title=Up%d", srv.URL, i), "audio/midi", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("upload %d: status %d", i, resp.StatusCode)
				return
			}
			var info SongInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				t.Error(err)
				return
			}
			ids <- info.ID
		}(i)
	}
	wg.Wait()
	close(ids)
	seen := map[int64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate song id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != uploads {
		t.Fatalf("%d unique ids for %d uploads", len(seen), uploads)
	}
}

// wavBody renders a good singer's hum of songs[0] as a WAV file.
func wavBody(t *testing.T, songs []music.Song, seed int64) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	if err := wav.Encode(&buf, hum.GoodSinger().RenderAudio(songs[0].Melody, r), audio.DefaultSampleRate); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// captureLog collects what handlers log (a recovered panic logs a stack
// trace) until the test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &logged
}

func errorMessage(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	return e.Error
}

// A WAV header is client input: a sample rate the tracker cannot frame is
// a 400, not a tracker panic turned into a 500 by the recovery handler, and
// an absurd one is a 400 too, at no cost in memory.
func TestQueryWAVSampleRate(t *testing.T) {
	_, srv, songs := newRobustServer(t, Config{})
	logged := captureLog(t)
	body := wavBody(t, songs, 5)
	for _, c := range []struct {
		rate uint32
		want string // in the error message; "" for a 200
	}{
		{0, "corrupt file: sample rate 0"},
		{50, "outside the 100–192000 Hz accepted"},
		{99, "outside the 100–192000 Hz accepted"},
		{audio.MinSampleRate, "cap is 60000"}, // framed: one sample a frame
		{audio.DefaultSampleRate, ""},
		{audio.MaxSampleRate, ""},
		{audio.MaxSampleRate + 1, "outside the 100–192000 Hz accepted"},
		{math.MaxUint32, "outside the 100–192000 Hz accepted"},
	} {
		binary.LittleEndian.PutUint32(body[24:28], c.rate)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(srv.URL+"/query?top=1", "audio/wav", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("rate %d: %v", c.rate, err)
		}
		runtime.ReadMemStats(&after)
		if c.want == "" {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("rate %d: status %d, want 200", c.rate, resp.StatusCode)
			}
		} else if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("rate %d: status %d %q, want 400 %q", c.rate, resp.StatusCode, msg, c.want)
		}
		// The hum is 8 bytes a sample decoded; nothing may scale with the
		// declared rate.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("rate %d: request allocated %d MiB", c.rate, grew>>20)
		}
	}
	if logged.Len() != 0 {
		t.Errorf("handler logged (panic recovered?):\n%s", logged)
	}
}

// The frame cap bounds audio as it bounds pitch arrays, before any frame
// is tracked, with the same message.
func TestQueryWAVFrameCap(t *testing.T) {
	_, srv, songs := newRobustServer(t, Config{MaxPitchFrames: 150})
	body := wavBody(t, songs, 6)
	hop := audio.DefaultSampleRate * audio.FrameMs / 1000
	post := func(frames int) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		samples, _, err := wav.Decode(body)
		if err != nil || len(samples) < frames*hop {
			t.Fatalf("hum of %d samples, err %v", len(samples), err)
		}
		if err := wav.Encode(&buf, samples[:frames*hop], audio.DefaultSampleRate); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/query?top=1", "audio/wav", &buf)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(151)
	if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || msg != "query has 151 frames, cap is 150" {
		t.Errorf("151 frames: status %d %q, want 400 naming the cap", resp.StatusCode, msg)
	}
	resp = post(150)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("150 frames: status %d, want 200", resp.StatusCode)
	}
}

// rawPost sends one request with a Content-Length of the caller's choosing,
// which net/http's client refuses to do. When more is declared than sent it
// half-closes the connection so the server's read ends (otherwise not: the
// server takes a half-close as the client going away and cancels the query).
func rawPost(t *testing.T, srv *httptest.Server, path string, contentLength int, body []byte) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %d\r\n\r\n", path, contentLength)
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	if contentLength > len(body) {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBody sizes its buffer from Content-Length; the header is client input
// and may be absent or wrong.
func TestReadBodyContentLength(t *testing.T) {
	const maxBody = 8 << 20
	_, srv, songs := newRobustServer(t, Config{MaxBodyBytes: maxBody})
	body := wavBody(t, songs, 7)
	matches := func(resp *http.Response) []MatchResponse {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr.Matches
	}
	want := matches(rawPost(t, srv, "/query?top=3", len(body), body))
	if len(want) != 3 {
		t.Fatalf("%d matches", len(want))
	}

	// No Content-Length: a reader of unknown length goes out chunked.
	chunked := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", struct{ io.Reader }{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if got := matches(chunked("/query?top=3", body)); !reflect.DeepEqual(got, want) {
		t.Errorf("chunked /query: %+v, want %+v", got, want)
	}
	song, err := midi.EncodeMelody(songs[1].Melody, 500000)
	if err != nil {
		t.Fatal(err)
	}
	resp := chunked("/songs", song)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("chunked /songs: status %d, want 201", resp.StatusCode)
	}
	resp = chunked("/query", make([]byte, maxBody+1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the cap: status %d, want 413", resp.StatusCode)
	}

	// Shorter than the body: the server reads what was declared, a
	// truncated WAV.
	resp = rawPost(t, srv, "/query", len(body)/2, body)
	if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "parsing WAV") {
		t.Errorf("Content-Length below the body: status %d %q, want 400 parsing WAV", resp.StatusCode, msg)
	}
	// Longer than the body: the read ends early. The buffer follows the
	// header only up to maxBodyPrealloc, not to the body cap or the
	// gigabyte declared, which the client never has to send.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, declared := range []int{len(body) + 1, maxBody, 1 << 30} {
		resp = rawPost(t, srv, "/query", declared, body)
		if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "reading body") {
			t.Errorf("Content-Length %d on a %d-byte body: status %d %q, want 400 reading body",
				declared, len(body), resp.StatusCode, msg)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*maxBodyPrealloc+2<<20 {
		t.Errorf("three lying Content-Length headers allocated %d MiB", grew>>20)
	}
}

// Sample buffers are pooled across requests: hums of different lengths
// posted from several goroutines at once must each get the answer they get
// alone.
func TestConcurrentWAVQueriesPooledBuffers(t *testing.T) {
	_, srv, songs := newRobustServer(t, Config{MaxConcurrent: 8})
	query := func(body []byte) (QueryResponse, error) {
		var qr QueryResponse
		resp, err := http.Post(srv.URL+"/query?top=3", "audio/wav", bytes.NewReader(body))
		if err != nil {
			return qr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return qr, fmt.Errorf("status %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&qr)
		return qr, err
	}
	bodies := make([][]byte, 6)
	want := make([]QueryResponse, len(bodies))
	for i := range bodies {
		bodies[i] = wavBody(t, songs[i%len(songs):], int64(60+i))
		var err error
		if want[i], err = query(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 12; n++ {
				i := (g + n) % len(bodies)
				got, err := query(bodies[i])
				if err != nil {
					t.Errorf("hum %d: %v", i, err)
				} else if got.VoicedFrames != want[i].VoicedFrames || !reflect.DeepEqual(got.Matches, want[i].Matches) {
					t.Errorf("hum %d under concurrency: %+v, alone: %+v", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
