package server

import (
	"fmt"
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
