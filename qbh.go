package warping

import (
	"math/rand"

	"warping/internal/audio"
	"warping/internal/hum"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
)

// --- Music model ------------------------------------------------------------

// Melody is a monophonic note sequence.
type Melody = music.Melody

// Song is a named melody.
type Song = music.Song

// BuiltinSongs returns a handful of public-domain tunes (Ode to Joy,
// Twinkle Twinkle, ...) for examples and smoke tests.
func BuiltinSongs() []Song { return music.BuiltinSongs() }

// --- MIDI -------------------------------------------------------------------

// EncodeMIDI serializes a melody as a format-0 Standard MIDI File at the given
// tempo (microseconds per quarter note; 500000 = 120 BPM).
func EncodeMIDI(m Melody, tempoMicros uint32) ([]byte, error) {
	return midi.EncodeMelody(m, tempoMicros)
}

// DecodeMIDI parses a Standard MIDI File and extracts a monophonic melody
// from its busiest channel.
func DecodeMIDI(data []byte) (Melody, error) { return midi.DecodeMelody(data) }

// --- Humming ----------------------------------------------------------------

// Singer is a parameterized hummer model used to simulate queries: it
// applies a global pitch shift, tempo scaling, per-note pitch error and
// timing jitter, glides, breaths, vibrato and noise.
type Singer = hum.Singer

// GoodSinger returns a competent amateur model.
func GoodSinger() Singer { return hum.GoodSinger() }

// Hum renders a full simulated performance of the melody — synthesis to
// audio, autocorrelation pitch tracking, silence removal — and returns the
// query pitch series, exactly what a microphone front end would produce.
func Hum(s Singer, m Melody, r *rand.Rand) Series { return s.Hum(m, r) }

// TrackPitch estimates a pitch time series from PCM audio: one MIDI pitch
// per 10 ms frame, 0 for unvoiced frames. Feed the result through
// StripSilence before querying. It panics when sampleRate is below 100 Hz,
// where a frame would hold no sample.
func TrackPitch(samples []float64, sampleRate int) Series {
	return audio.TrackPitch(samples, sampleRate)
}

// StripSilence removes unvoiced (zero) frames from a pitch series.
func StripSilence(p Series) Series { return hum.StripSilence(p) }

// --- Query-by-humming system --------------------------------------------------

// QBHOptions configures a query-by-humming system.
type QBHOptions = qbh.Options

// QBH is a query-by-humming search system: songs segmented into phrases,
// phrase normal forms indexed under banded DTW.
type QBH = qbh.System

// BuildQBH constructs a query-by-humming system over the songs.
func BuildQBH(songs []Song, opts QBHOptions) (*QBH, error) {
	return qbh.Build(songs, opts)
}
