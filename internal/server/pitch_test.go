package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"warping/internal/hum"
	"warping/internal/music"
	"warping/internal/ts"
)

// pitchGrammarCases are bodies at the edges of JSON's grammar and of the
// one shape decodePitch scans itself.
var pitchGrammarCases = []string{
	"", " ", "null", "[]", " [ ] ", "[]x", "[60]", "[60,61.5,-3e2,0,-0,1E+2,2e-3]", "\t\n\r[60 , 61]\n",
	"[01]", "[.5]", "[+1]", "[-]", "[1.]", "[1e]", "[1e+]", "[--1]", "[0x10]", "[1_0]", "[Infinity]",
	"[NaN]", "[1e400]", "[-1e400]", "[1e-400]", "[4.9e-324]", "[1.7976931348623157e308]",
	"[60,]", "[,60]", "[60 61]", "[60", "[60,", "[", "[[60]]", "[\"60\"]", "[true]", "[null]",
	"{\"a\":1}", "\"60\"", "60", "\xef\xbb\xbf[60]", "[60]]", "[60] [61]", "[60]{", "[1,2,3",
}

// FuzzDecodePitch pins decodePitch to json.Decoder.Decode into a []float64:
// the same error text, nil where it is nil, and every value's bits.
func FuzzDecodePitch(f *testing.F) {
	for _, c := range pitchGrammarCases {
		f.Add([]byte(c))
	}
	body, _ := json.Marshal([]float64{60.25, 61.123456789012345, -0.5, 1e-7, 72})
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodePitch(body, nil)
		var want []float64
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, encoding/json %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%q: %#v, encoding/json %#v", body, got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: value %d is %v, encoding/json %v", body, i, got[i], want[i])
			}
		}
	})
}

// humBody is the JSON of a rendered hum: ≈ 1 000 frames, what a client of
// /query/pitch sends.
func humBody(tb testing.TB) []byte {
	r := rand.New(rand.NewSource(30))
	body, err := json.Marshal([]float64(hum.GoodSinger().RenderPitch(music.BuiltinSongs()[0].Melody, r)))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// Decoding a hum allocates the pitch slice and nothing else: the bound
// holds for any body decodePitch scans itself.
func TestDecodePitchAllocs(t *testing.T) {
	body := humBody(t)
	if allocs := testing.AllocsPerRun(50, func() { _, _ = decodePitch(body, nil) }); allocs > 1 {
		t.Errorf("decoding a %d-byte hum allocates %v times, want at most 1", len(body), allocs)
	}
}

func BenchmarkDecodePitch(b *testing.B) {
	body := humBody(b)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			_, _ = decodePitch(body, nil)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			var p []float64
			_ = json.NewDecoder(bytes.NewReader(body)).Decode(&p)
		}
	})
}

// streamingQueryPitch is /query/pitch as it decoded before decodePitch:
// json.Decoder over the capped body stream. The reference the handler is
// held to.
func streamingQueryPitch(h *Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		topK, delta, err := queryParams(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var pitches []float64
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.lim.maxBodyBytes))
		if err := dec.Decode(&pitches); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
				return
			}
			httpError(w, http.StatusBadRequest, "parsing pitch JSON: %v", err)
			return
		}
		if err := validatePitch(pitches, h.lim.maxPitchFrames); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		h.respondQuery(w, r, hum.StripSilence(ts.Series(pitches)), topK, delta)
	}
}

// Every /query/pitch body gets the status and the bytes the streaming
// json.Decoder gave it: sent whole or chunked, with trailing data, over
// the cap with the array closed before it or not, cut short of its
// Content-Length, and every grammar case.
func TestQueryPitchDecodeMatchesEncodingJSON(t *testing.T) {
	const maxBody, maxFrames = 1 << 16, 5000
	h, srv, _ := newRobustServer(t, func(l *limits) { l.maxBodyBytes, l.maxPitchFrames = maxBody, maxFrames })
	ref := httptest.NewServer(streamingQueryPitch(h))
	t.Cleanup(ref.Close)

	song := humBody(t)
	if len(song) >= maxBody/2 {
		t.Fatalf("hum body %d bytes, cap %d", len(song), maxBody)
	}
	cat := func(a []byte, b string) []byte { return append(append([]byte(nil), a...), b...) }
	long := []byte("[" + strings.Repeat("60,", maxBody) + "60]")
	bodies := map[string][]byte{
		"hum":                        song,
		"trailing data":              cat(song, " garbage"),
		"oversized":                  long,
		"oversized, closed in time":  cat(song, strings.Repeat(" ", maxBody)),
		"oversized, junk after":      cat(song, strings.Repeat("x", maxBody)),
		"oversized, error before it": cat([]byte("[60,x"), string(long)),
		"over the frame cap":         []byte("[" + strings.Repeat("6,", maxFrames) + "6]"),
	}
	for _, c := range pitchGrammarCases {
		bodies["grammar "+c] = []byte(c)
	}
	post := func(s *httptest.Server, body io.Reader) *http.Response {
		resp, err := http.Post(s.URL+"/query/pitch?top=3", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	same := func(name string, got, want *http.Response) {
		t.Helper()
		gotBody, _ := io.ReadAll(got.Body)
		wantBody, _ := io.ReadAll(want.Body)
		got.Body.Close()
		want.Body.Close()
		if got.StatusCode != want.StatusCode || !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: %d %s, streaming json.Decoder %d %s", name, got.StatusCode, gotBody, want.StatusCode, wantBody)
		}
	}
	for name, body := range bodies {
		same(name, post(srv, bytes.NewReader(body)), post(ref, bytes.NewReader(body)))
		// A reader of unknown length goes out chunked.
		same(name+", chunked", post(srv, struct{ io.Reader }{bytes.NewReader(body)}), post(ref, struct{ io.Reader }{bytes.NewReader(body)}))
	}
	// Cut short of its Content-Length, the read ends in an error.
	for _, body := range [][]byte{song[:len(song)/2], []byte("[60,61"), nil} {
		same(fmt.Sprintf("%d of %d bytes", len(body), len(body)+10),
			rawPost(t, srv, "/query/pitch?top=3", len(body)+10, body), rawPost(t, ref, "/query/pitch?top=3", len(body)+10, body))
	}
}

// A delta that is not a number in [0, 1] is a 400 on both query
// endpoints; NaN used to pass the range test and be served at δ = 0.
func TestQueryNonFiniteDelta(t *testing.T) {
	_, srv, songs := newRobustServer(t, nil)
	for _, path := range []string{"/query", "/query/pitch"} {
		body := pitchBody(t, songs, 31)
		if path == "/query" {
			body = wavBody(t, songs, 31)
		}
		for _, delta := range []string{"nan", "NaN", "+Inf", "-Inf", "Inf", "7"} {
			resp, err := http.Post(srv.URL+path+"?delta="+url.QueryEscape(delta), "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			want := "invalid delta \"" + delta + "\""
			if msg := errorMessage(t, resp); resp.StatusCode != http.StatusBadRequest || msg != want {
				t.Errorf("%s?delta=%s: %d %q, want 400 %q", path, delta, resp.StatusCode, msg, want)
			}
		}
	}
}
