package qbh

import (
	"context"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/ts"
)

// countingEnvTransform counts ApplyEnvelope calls.
type countingEnvTransform struct {
	core.Transform
	envApplies int
}

func (c *countingEnvTransform) ApplyEnvelope(e dtw.Envelope) core.FeatureEnvelope {
	c.envApplies++
	return c.Transform.ApplyEnvelope(e)
}

// buildCountingSystem mirrors Build but wraps the transform in a counter,
// so tests can observe how often the query path runs ApplyEnvelope.
func buildCountingSystem(t *testing.T, songs []music.Song, opts Options) (*System, *countingEnvTransform) {
	t.Helper()
	opts.fill()
	s := &System{opts: opts, songs: make(map[int64]music.Song)}
	var normals []ts.Series
	for _, song := range songs {
		s.songs[song.ID] = song
		for ord, ph := range music.SegmentPhrases(song.Melody, opts.PhraseMin, opts.PhraseMax) {
			s.phrases = append(s.phrases, Phrase{SongID: song.ID, Ordinal: ord, Melody: ph})
			normals = append(normals, s.Normalize(ph.TimeSeries()))
		}
	}
	s.publishSongOfLocked()
	tr := &countingEnvTransform{Transform: core.NewPAA(opts.NormalLen, opts.Dim)}
	entries := make([]index.Entry, len(normals))
	for i, nf := range normals {
		entries[i] = index.Entry{ID: int64(i), Series: nf}
	}
	var err error
	if s.ix, err = index.BulkLoad(tr, index.Config{}, entries); err != nil {
		t.Fatal(err)
	}
	return s, tr
}

// TestQueryCtxAppliesEnvelopeOnce: one hummed query = one envelope
// transform. The motif song puts 30-odd near-identical phrases at the front
// of the phrase ranking; the distinct-song search must still surface topK
// songs.
func TestQueryCtxAppliesEnvelopeOnce(t *testing.T) {
	pattern := []int{60, 62, 64, 65, 67, 69, 67, 65, 64, 62, 60, 59, 57, 59, 60}
	var motif music.Melody
	for i := 0; i < 32; i++ {
		for _, p := range pattern {
			motif = append(motif, music.Note{Pitch: p, Duration: 1})
		}
	}
	songs := append(testSongs(405, 4), music.Song{ID: 100, Title: "Motif Song", Melody: motif})
	pitch := motif[:len(pattern)].TimeSeries()
	const topK, delta = 3, 0.1

	s, tr := buildCountingSystem(t, songs, Options{})

	// The motif must really crowd the phrase ranking, or the test says
	// nothing about distinct songs: the 4·topK nearest phrases hold
	// fewer than topK songs.
	near, _, err := s.Index().KNNCtx(context.Background(), s.Normalize(pitch), 4*topK, delta, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	crowd := map[int64]bool{}
	for _, m := range near {
		ph, _ := s.PhraseByID(m.ID)
		crowd[ph.SongID] = true
	}
	if len(crowd) >= topK {
		t.Fatalf("the %d nearest phrases already cover %d songs; motif not crowding the ranking", 4*topK, len(crowd))
	}

	tr.envApplies = 0
	got, _, err := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != topK {
		t.Fatalf("got %d songs, want %d", len(got), topK)
	}
	if got[0].SongID != 100 {
		t.Errorf("best song = %d, want the motif song", got[0].SongID)
	}
	if tr.envApplies != 1 {
		t.Errorf("QueryCtx ran ApplyEnvelope %d times, want exactly 1", tr.envApplies)
	}
}
