package qbh

import (
	"context"
	"sync/atomic"
	"testing"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/ts"
)

// countingEnvTransform counts ApplyEnvelope calls. The counter is atomic
// because sharded queries fan out across goroutines — without plan sharing
// each shard would apply the envelope transform itself, concurrently.
type countingEnvTransform struct {
	core.Transform
	envApplies atomic.Int64
}

func (c *countingEnvTransform) ApplyEnvelope(e dtw.Envelope) core.FeatureEnvelope {
	c.envApplies.Add(1)
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
	base, err := makeTransform(opts, normals)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingEnvTransform{Transform: base}
	nShards := opts.Shards
	if nShards < 1 {
		nShards = 1
	}
	ix, err := index.NewSharded("", tr, index.Config{Tree: opts.Tree}, nShards)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]index.Entry, len(normals))
	for i, nf := range normals {
		entries[i] = index.Entry{ID: int64(i), Series: nf}
	}
	if err := ix.BulkAdd(entries); err != nil {
		t.Fatal(err)
	}
	s.ix = ix
	return s, tr
}

// TestQueryCtxAppliesEnvelopeOnce: one hummed query = one envelope
// transform, however many shards the search fans out across. The motif
// song puts 30-odd near-identical phrases at the front of the phrase
// ranking; the distinct-song search must still surface topK songs.
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

	for _, shards := range []int{1, 4} {
		s, tr := buildCountingSystem(t, songs, Options{Shards: shards})

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
			t.Fatalf("shards=%d: the %d nearest phrases already cover %d songs; motif not crowding the ranking", shards, 4*topK, len(crowd))
		}

		tr.envApplies.Store(0)
		got, _, err := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != topK {
			t.Fatalf("shards=%d: got %d songs, want %d", shards, len(got), topK)
		}
		if got[0].SongID != 100 {
			t.Errorf("shards=%d: best song = %d, want the motif song", shards, got[0].SongID)
		}
		if n := tr.envApplies.Load(); n != 1 {
			t.Errorf("shards=%d: QueryCtx ran ApplyEnvelope %d times, want exactly 1", shards, n)
		}
	}
}

// TestQueryShardCountsAgree is belt and braces for the shared-plan fan-out:
// the full song ranking must be identical across shard counts.
func TestQueryShardCountsAgree(t *testing.T) {
	songs := testSongs(406, 8)
	pitch := songs[2].Melody[:12].TimeSeries()
	var want []SongMatch
	for i, shards := range []int{1, 2, 5} {
		s, _ := buildCountingSystem(t, songs, Options{Shards: shards})
		got, _, err := s.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d songs, want %d", shards, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("shards=%d: rank %d = %+v, want %+v", shards, j, got[j], want[j])
			}
		}
	}
}
