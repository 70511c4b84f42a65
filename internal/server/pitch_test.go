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
	"strconv"
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
	// Both sides of each bound of number's fast path: mant ≤ 2^53, |exp|
	// ≤ 22, at most 19 digits.
	for _, v := range []string{"9007199254740993", "900719925474099.3", "1e22", "1e23", "1e-22", "1e-23",
		"12345678901234567890", "0.000000000000000000001", "-0.0", "123456789012345678e-5"} {
		f.Add([]byte("[" + v + "]"))
	}
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

// humBody is the JSON of a rendered hum, what a client of /query/pitch
// sends: 1 600 frames and 28 940 B. The singer holds each note flat, so
// most frames repeat the one before.
func humBody(tb testing.TB) []byte {
	return jsonBody(tb, hum.GoodSinger().RenderPitch(music.BuiltinSongs()[0].Melody, rand.New(rand.NewSource(30))))
}

// trackedBody is the JSON of humBody's rendition sung and tracked back
// from its audio (hum.StripSilence of audio.TrackPitch): 1 598 frames, no
// frame equal to the one before.
func trackedBody(tb testing.TB) []byte {
	return jsonBody(tb, hum.GoodSinger().Hum(music.BuiltinSongs()[0].Melody, rand.New(rand.NewSource(30))))
}

// jsonBody is p as json.Marshal writes it.
func jsonBody(tb testing.TB, p ts.Series) []byte {
	body, err := json.Marshal([]float64(p))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// Decoding a hum allocates the pitch slice and nothing else: the bound
// holds for any body decodePitch scans itself, the numbers number hands
// to strconv.ParseFloat included (fallback: every mantissa above 2^53 or
// exponent past ±22).
func TestDecodePitchAllocs(t *testing.T) {
	fallback := []byte("[61.123456789012345,98.76543210987654,-1.2345678901234567e-120,6.02214076e+123,1e-300,2.2250738585072014E-308]")
	for name, body := range map[string][]byte{"hum": humBody(t), "fallback": fallback} {
		if allocs := testing.AllocsPerRun(50, func() { _, _ = decodePitch(body, nil) }); allocs > 1 {
			t.Errorf("%s: decoding a %d-byte body allocates %v times, want at most 1", name, len(body), allocs)
		}
	}
}

// number gives strconv.ParseFloat's bits, end and verdict on ≈ 1 M tokens,
// through both sides of each bound of its fast path, and takes no token
// whole that JSON's grammar refuses: a bound loosened to mant ≤ 2^54 or
// |exp| ≤ 23 fails here.
func TestNumberMatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	check := func(tok string) {
		b := append([]byte(tok), ']')
		v, j, ok := number(b, 0)
		if !json.Valid(b[:len(tok)]) {
			if ok && j == len(tok) {
				t.Fatalf("%q: number takes it, JSON's grammar does not", tok)
			}
			return
		}
		want, err := strconv.ParseFloat(tok, 64)
		if j != len(tok) || ok != (err == nil) || ok && math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%q: number gives %v, end %d, ok %v; strconv.ParseFloat %v, %v", tok, v, j, ok, want, err)
		}
	}
	for k := range 200000 {
		x := r.Float64()*2000 - 1000 // a pitch's size
		if k%4 == 0 {
			x = math.Float64frombits(r.Uint64()) // any float64
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		for _, f := range []byte{'g', 'e', 'f'} {
			check(strconv.FormatFloat(x, f, -1, 64))
		}
	}
	randDigits := func(n int) string {
		d := make([]byte, n)
		for k := range d {
			d[k] = byte('0' + r.Intn(10))
		}
		return string(d)
	}
	for range 100000 {
		tok := randDigits(1+r.Intn(22)) + "." + randDigits(1+r.Intn(22))
		if r.Intn(2) == 0 {
			tok = "-" + tok
		}
		check(tok)
	}
	for _, m := range []string{"9007199254740991", "9007199254740992", "9007199254740993"} {
		for k := 0; k <= len(m); k++ {
			for _, tok := range []string{m[:k] + "." + m[k:], m + "e-" + strconv.Itoa(k)} {
				check(tok)
				check("-" + tok)
			}
		}
	}
	for e := -24; e <= 24; e++ {
		for range 2000 {
			check(fmt.Sprintf("%de%d", r.Int63n(1<<(1+r.Intn(54))), e))
			check(fmt.Sprintf("%s.%sE%+d", randDigits(1), randDigits(1+r.Intn(15)), e))
		}
	}
	for _, tok := range []string{"0e99999", "1e400", "4.9e-324", "-0", "0", "1e00000000000000000000022", "1e-18446744073709551616"} {
		check(tok)
	}
}

func BenchmarkDecodePitch(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
	}{{"", humBody(b)}, {"tracked/", trackedBody(b)}} {
		body := c.body
		b.Run(c.name+"scan", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				_, _ = decodePitch(body, nil)
			}
		})
		b.Run(c.name+"encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var p []float64
				_ = json.NewDecoder(bytes.NewReader(body)).Decode(&p)
			}
		})
	}
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

// The pooled body buffer carries nothing from one request to the next: a
// long pitch body, then a short one, through one handler, each answered
// with the bytes a fresh handler that reads no pooled buffer writes.
func TestQueryPitchPooledBody(t *testing.T) {
	sys, _ := buildSystem(t, 0)
	h := NewBackend(sys)
	long := trackedBody(t)
	short := jsonBody(t, hum.GoodSinger().RenderPitch(music.TwinkleTwinkle(), rand.New(rand.NewSource(31)))[:200])
	if len(short) >= len(long)/4 {
		t.Fatalf("short body %d bytes against a long one of %d", len(short), len(long))
	}
	post := func(h http.Handler, body []byte) (int, []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query/pitch?top=3", bytes.NewReader(body)))
		return w.Code, w.Body.Bytes()
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"long", long}, {"short", short}, {"long again", long}} {
		code, got := post(h, c.body)
		wantCode, want := post(streamingQueryPitch(NewBackend(sys)), c.body)
		if code != http.StatusOK || code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s body: %d %s, a fresh handler %d %s", c.name, code, got, wantCode, want)
		}
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
