package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"warping/internal/audio"
	"warping/internal/lru"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/ts"
	"warping/internal/wav"
)

// postWAV serves one POST /query?top=3 of body through h and returns the
// status and the response bytes.
func postWAV(h *Handler, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query?top=3", bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// memoSeries returns the series h's memo holds for body, if any. The
// lookup counts in the memo's hits or misses like a request's.
func memoSeries(h *Handler, body []byte) (ts.Series, bool) {
	return h.memo.Get(sha256.Sum256(body), nil)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b ts.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func buildSystem(t testing.TB, cacheBytes int64) (*qbh.System, []music.Song) {
	t.Helper()
	songs := music.BuiltinSongs()
	sys, err := qbh.Build(songs, qbh.Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableResultCache(cacheBytes)
	return sys, songs
}

// truncWAV re-encodes the first frames 10 ms frames of body's audio.
func truncWAV(t *testing.T, body []byte, frames int) []byte {
	t.Helper()
	samples, _, err := wav.Decode(body)
	hop := audio.DefaultSampleRate * audio.FrameMs / 1000
	if err != nil || len(samples) < frames*hop {
		t.Fatalf("hum of %d samples, err %v", len(samples), err)
	}
	var buf bytes.Buffer
	if err := wav.Encode(&buf, samples[:frames*hop], audio.DefaultSampleRate); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A repeated recording is answered from the memo with exactly the series
// tracking gives, and with the bytes a handler that never saw it writes —
// a too-short hum's 400 included. Over a result cache, the repeat differs
// from the first answer only by its "cached" marker.
func TestPitchMemoRepeatedWAV(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	h := NewBackend(sys)
	memoRate := func() any {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var doc struct {
			PitchMemo map[string]any `json:"pitch_memo"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%v in %s", err, w.Body)
		}
		return doc.PitchMemo["hit_rate"]
	}
	if got := memoRate(); got != 0.0 {
		t.Fatalf("untouched pitch_memo hit_rate = %v, want 0", got)
	}
	body := wavBody(t, songs, 5)
	short := truncWAV(t, body, 8) // 80 ms: under ten voiced frames
	for _, c := range []struct {
		name string
		body []byte
		code int
	}{{"hum", body, http.StatusOK}, {"short hum", short, http.StatusBadRequest}} {
		code, first := postWAV(h, c.body)
		if code != c.code {
			t.Fatalf("%s: status %d %s, want %d", c.name, code, first, c.code)
		}
		stored, ok := memoSeries(h, c.body)
		if !ok {
			t.Fatalf("%s: tracked series not remembered", c.name)
		}
		want, err := pitchFromWAV(c.body, servingLimits().maxPitchFrames)
		if err != nil || !sameBits(stored, want) {
			t.Fatalf("%s: remembered series differs from pitchFromWAV's (err %v)", c.name, err)
		}
		code, repeat := postWAV(h, c.body)
		_, fresh := postWAV(NewBackend(sys), c.body)
		if code != c.code || !bytes.Equal(repeat, first) || !bytes.Equal(fresh, first) {
			t.Errorf("%s: answers differ:\n first %s\nrepeat %d %s\n fresh %s", c.name, first, code, repeat, fresh)
		}
	}
	// Each body: a miss, memoSeries' hit, the repeat's hit.
	if st := h.memo.Stats(); st.Hits != 4 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("memo %+v, want 4 hits, 2 misses, 2 entries", st)
	}
	if got := memoRate(); got != 4.0/6 {
		t.Errorf("pitch_memo hit_rate = %v, want 4/6", got)
	}

	cached, _ := buildSystem(t, 1<<20)
	h = NewBackend(cached)
	_, first := postWAV(h, body)
	_, repeat := postWAV(h, body)
	if bytes.Contains(first, []byte(`"cached"`)) || !bytes.Contains(repeat, []byte(`,"cached":true`)) {
		t.Fatalf("cached marker: first %s, repeat %s", first, repeat)
	}
	if got := bytes.Replace(repeat, []byte(`,"cached":true`), nil, 1); !bytes.Equal(got, first) {
		t.Errorf("repeat through the result cache:\n%s\nfirst answer:\n%s", repeat, first)
	}
}

// The key is the body's every byte: one sample changed is another
// recording, tracked afresh.
func TestPitchMemoFlippedByte(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	h := NewBackend(sys)
	body := wavBody(t, songs, 5)
	flipped := bytes.Clone(body)
	flipped[44+len(body[44:])/2] ^= 0x40 // a sample mid-hum, in the data chunk
	postWAV(h, body)
	code, got := postWAV(h, flipped)
	_, want := postWAV(NewBackend(sys), flipped)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("flipped body: %d %s, want %s", code, got, want)
	}
	if st := h.memo.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("memo %+v, want 2 misses and 2 entries", st)
	}
	stored, _ := memoSeries(h, flipped)
	tracked, err := pitchFromWAV(flipped, servingLimits().maxPitchFrames)
	if err != nil || !sameBits(stored, tracked) {
		t.Fatalf("flipped body's series is not its own tracking (err %v)", err)
	}
}

// The memo a handler runs holds no more than its bound, whatever the
// stream of recordings; internal/lru's tests hold the bound for any stream.
func TestPitchMemoBound(t *testing.T) {
	// Distinct recordings under a bound of two of the longest.
	sys, songs := buildSystem(t, 0)
	h := NewBackend(sys)
	h.memo = lru.New[[sha256.Size]byte, ts.Series](2 * memoEntryBytes(make(ts.Series, 1505)))
	for i := 0; i < 8; i++ {
		if code, resp := postWAV(h, wavBody(t, songs[i%len(songs):], int64(i))); code != http.StatusOK {
			t.Fatalf("hum %d: %d %s", i, code, resp)
		}
		if st := h.memo.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("after hum %d: %+v", i, st)
		}
	}
	if st := h.memo.Stats(); st.Entries > 3 {
		t.Errorf("memo %+v kept more hums than fit", st)
	}
}

// A body that fails to track is never remembered, and fails the same way
// every time it comes.
func TestPitchMemoErrorsNotStored(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	h := testHandler(sys, func(l *limits) { l.maxPitchFrames = 150 })
	body := wavBody(t, songs, 6)
	badRate := truncWAV(t, body, 100)
	binary.LittleEndian.PutUint32(badRate[24:28], 50)
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"not a WAV", []byte("RIFF, but not really"), `{"error":"parsing WAV: `},
		{"rate 50 Hz", badRate, `{"error":"WAV sample rate 50 Hz is outside the 100–192000 Hz accepted"}`},
		{"over the frame cap", truncWAV(t, body, 151), `{"error":"query has 151 frames, cap is 150"}`},
	} {
		code, first := postWAV(h, c.body)
		again, second := postWAV(h, c.body)
		if code != http.StatusBadRequest || again != code || !bytes.HasPrefix(first, []byte(c.want)) || !bytes.Equal(first, second) {
			t.Errorf("%s: %d %s then %d %s, want 400 %s twice", c.name, code, first, again, second, c.want)
		}
	}
	if st := h.memo.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 6 {
		t.Errorf("memo %+v, want 6 misses and nothing stored", st)
	}
}

// A memo belongs to its handler: one with a lower frame cap refuses what
// another has remembered, and remembers nothing of it.
func TestPitchMemoPerHandler(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	wide := NewBackend(sys)
	narrow := testHandler(sys, func(l *limits) { l.maxPitchFrames = 150 })
	body := wavBody(t, songs, 7)
	for _, h := range []*Handler{narrow, wide, narrow, wide} {
		want := http.StatusOK
		if h == narrow {
			want = http.StatusBadRequest
		}
		if code, resp := postWAV(h, body); code != want {
			t.Fatalf("status %d %s, want %d", code, resp, want)
		}
	}
	if st := narrow.memo.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("narrow handler's memo %+v, want empty", st)
	}
	if st := wide.memo.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("wide handler's memo %+v, want one entry hit once", st)
	}
}

// The remembered series is shared with every query it answers: no backend
// below the handler may write to it.
func TestPitchMemoSeriesUnwritten(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	group := startGroup(t, "g", songs, clusterOpts, 0)
	body := wavBody(t, songs, 8)
	for name, b := range map[string]Backend{"system": sys, "coordinator": testCoordinator(t, group)} {
		h := NewBackend(b)
		if code, resp := postWAV(h, body); code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, code, resp)
		}
		stored, _ := memoSeries(h, body)
		want := append(ts.Series(nil), stored...)
		for i := 0; i < 3; i++ {
			if code, resp := postWAV(h, body); code != http.StatusOK {
				t.Fatalf("%s: %d %s", name, code, resp)
			}
		}
		// memoSeries' lookup and the three repeats hit.
		if st := h.memo.Stats(); st.Hits != 4 || !sameBits(stored, want) {
			t.Errorf("%s: memo %+v; stored series changed: %v", name, st, !sameBits(stored, want))
		}
	}
}

// Identical and distinct bodies at once: every answer is the bytes a
// handler that sees each body alone writes.
func TestPitchMemoConcurrent(t *testing.T) {
	sys, songs := buildSystem(t, 0)
	bodies := make([][]byte, 4)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		bodies[i] = wavBody(t, songs[i%len(songs):], int64(70+i))
		_, want[i] = postWAV(NewBackend(sys), bodies[i])
	}
	h := testHandler(sys, func(l *limits) { l.slots = 8 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				i := (g/2 + n) % len(bodies) // goroutines run in pairs on one body
				if code, got := postWAV(h, bodies[i]); code != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("hum %d under concurrency: %d %s, alone %s", i, code, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if st := h.memo.Stats(); st.Entries != len(bodies) || st.Hits+st.Misses != 48 {
		t.Errorf("memo %+v, want %d entries and 48 lookups", st, len(bodies))
	}
}

// A memo hit allocates neither the body buffer nor the decoded samples:
// well under the bytes of the body it reads.
func TestPitchMemoHitAllocates(t *testing.T) {
	sys, songs := buildSystem(t, 1<<20)
	h := NewBackend(sys)
	body := wavBody(t, songs[1:], 9)
	if len(body) <= 96<<10 {
		t.Fatalf("a %d-byte hum proves nothing against a 96 KiB bound", len(body))
	}
	for i := 0; i < 2; i++ {
		if code, resp := postWAV(h, body); code != http.StatusOK {
			t.Fatalf("%d %s", code, resp)
		}
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		postWAV(h, body)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 96<<10 {
		t.Errorf("a memo hit allocates %d bytes, want under 96 KiB", per)
	}
	if st := h.memo.Stats(); st.Hits != calls+1 {
		t.Errorf("memo %+v, want %d hits", st, calls+1)
	}
}
