package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"warping/internal/audio"
	"warping/internal/hum"
	"warping/internal/ts"
	"warping/internal/wav"
)

// samplePool recycles the decoded-sample buffers of /query requests: eight
// bytes per sample, ≈ 384 KB for a 6 s hum at 8 kHz, garbage the moment the
// pitch series exists.
var samplePool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledSamples keeps the buffer of a rare huge upload (a 16 MiB body is
// 64 MiB of samples) from being pinned by the pool; two minutes at 8 kHz.
const maxPooledSamples = 1 << 20

// bodyPool recycles the body buffers of /query requests, ≈ 96 KB for a 6 s
// hum at 8 kHz: the memo keeps a body's digest, never its bytes, so the
// buffer is garbage once the body is hashed and, on a miss, tracked.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps the buffer of a body larger than any Content-Length
// sizes (a chunked upload grows its buffer as its bytes arrive) out of the
// pool.
const maxPooledBody = 2 * maxBodyPrealloc

// pitchMemoBytes bounds a Handler's pitch memo: at ≈ 4.5 KB a six-second
// hum's series, 800–1 000 recordings.
const pitchMemoBytes = 4 << 20

// pitchFromWAV turns a /query body into the voiced pitch series of its
// audio. Every error is the client's: an unreadable file, a sample rate the
// tracker cannot frame, or more frames than maxFrames.
func pitchFromWAV(body []byte, maxFrames int) (ts.Series, error) {
	buf := samplePool.Get().(*[]float64)
	defer samplePool.Put(buf)
	samples, rate, err := wav.DecodeInto(*buf, body)
	if err != nil {
		return nil, fmt.Errorf("parsing WAV: %w", err)
	}
	if cap(samples) <= maxPooledSamples {
		*buf = samples
	}
	if rate < audio.MinSampleRate || rate > audio.MaxSampleRate {
		return nil, fmt.Errorf("WAV sample rate %d Hz is outside the %d–%d Hz accepted", rate, audio.MinSampleRate, audio.MaxSampleRate)
	}
	// Checked before tracking, which costs time in proportion to the
	// frames while the request holds an admission slot.
	hop := rate * audio.FrameMs / 1000
	if err := checkFrameCap(len(samples)/hop, maxFrames); err != nil {
		return nil, err
	}
	// Neither TrackPitch's series nor the stripped copy aliases samples.
	return hum.StripSilence(audio.TrackPitch(samples, rate)), nil
}

// wavPitch reads a /query body and returns the voiced pitch series of its
// audio: the memo's when the same bytes were tracked before, pitchFromWAV's
// otherwise. It answers the request itself, and reports false, when the
// body cannot be read or tracked.
func (h *Handler) wavPitch(w http.ResponseWriter, r *http.Request) (ts.Series, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	body, ok := h.readBody(w, r, buf)
	if !ok {
		return nil, false
	}
	key := sha256.Sum256(body)
	if pitch, ok := h.memo.get(key); ok {
		return pitch, true
	}
	pitch, err := pitchFromWAV(body, h.lim.maxPitchFrames)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	h.memo.put(key, pitch)
	return pitch, true
}

// pitchMemo remembers the pitch series of the /query bodies a Handler has
// tracked, under the SHA-256 of the body: a recording sent again skips
// decode and tracking. Tracking is a pure function of the body's bytes and
// of the handler's constant limits, so an entry never goes stale. The
// stored series is handed out shared and read-only. A byte-bounded LRU.
type pitchMemo struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[[sha256.Size]byte]*list.Element

	hits, misses int64
}

// memoEntry is one remembered body's series.
type memoEntry struct {
	key   [sha256.Size]byte
	pitch ts.Series
	bytes int64
}

func newPitchMemo(maxBytes int64) *pitchMemo {
	return &pitchMemo{maxBytes: maxBytes, ll: list.New(), items: make(map[[sha256.Size]byte]*list.Element)}
}

// get returns the series stored under key. The caller must not write to it.
func (m *pitchMemo) get(key [sha256.Size]byte) (ts.Series, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits++
	return el.Value.(*memoEntry).pitch, true
}

// put stores pitch under key, evicting least-recently-used entries past the
// byte bound. A series larger than the whole bound is not stored, and an
// entry already under key (a concurrent request tracked the same body) is
// kept: both series are the same.
func (m *pitchMemo) put(key [sha256.Size]byte, pitch ts.Series) {
	e := &memoEntry{key: key, pitch: pitch, bytes: memoEntryBytes(pitch)}
	if e.bytes > m.maxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[key]; ok {
		return
	}
	m.items[key] = m.ll.PushFront(e)
	m.bytes += e.bytes
	for m.bytes > m.maxBytes {
		old := m.ll.Remove(m.ll.Back()).(*memoEntry)
		delete(m.items, old.key)
		m.bytes -= old.bytes
	}
}

// memoEntryBytes approximates an entry's resident size: the series' backing
// array, plus its key and the fixed map and list overhead.
func memoEntryBytes(pitch ts.Series) int64 {
	return 8*int64(cap(pitch)) + 128
}

func (m *pitchMemo) stats() PitchMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PitchMemoStats{Hits: m.hits, Misses: m.misses, Entries: m.ll.Len(), Bytes: m.bytes, MaxBytes: m.maxBytes}
}

// PitchMemoStats is the /stats "pitch_memo" section, which every Handler
// adds next to its backend's: the counters of the memo of tracked /query
// bodies.
type PitchMemoStats struct {
	// Hits and Misses count lookups, one per /query body read.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries and Bytes describe the memo's contents; MaxBytes is its bound.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup, never
// NaN.
func (s PitchMemoStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// MarshalJSON adds the derived "hit_rate" to the counters.
func (s PitchMemoStats) MarshalJSON() ([]byte, error) {
	type counters PitchMemoStats
	return json.Marshal(struct {
		counters
		HitRate float64 `json:"hit_rate"`
	}{counters(s), s.HitRate()})
}
