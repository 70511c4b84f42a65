package server

import (
	"bytes"
	"crypto/sha256"
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
	// The memo keeps a body's digest, never its bytes, so the buffer is
	// free once the body is hashed and, on a miss, tracked.
	buf := bodyPool.Get().(*bytes.Buffer)
	defer releaseBody(buf)
	body, ok := h.readBody(w, r, buf)
	if !ok {
		return nil, false
	}
	key := sha256.Sum256(body)
	if pitch, ok := h.memo.Get(key, nil); ok {
		return pitch, true
	}
	pitch, err := pitchFromWAV(body, h.lim.maxPitchFrames)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	// An entry already under key, from a concurrent request that tracked
	// the same body, is kept: both series are the same.
	h.memo.Put(key, pitch, memoEntryBytes(pitch), nil)
	return pitch, true
}

// memoEntryBytes approximates a pitch memo entry's resident size: the
// series' backing array, plus its key and the fixed map and list overhead.
func memoEntryBytes(pitch ts.Series) int64 {
	return 8*int64(cap(pitch)) + 128
}
