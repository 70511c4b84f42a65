package qbh

import (
	"context"
	"math/rand"
	"testing"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/ts"
)

// Rank returns the 1-based rank of targetSong in the full song ranking for
// the query (the quality measure of Tables 2 and 3), or 0 if the song is
// not in the database.
func (s *System) Rank(pitch ts.Series, targetSong int64, delta float64) int {
	s.mu.RLock()
	_, ok := s.songs[targetSong]
	nSongs := len(s.songs)
	s.mu.RUnlock()
	if !ok {
		return 0
	}
	ranked, _ := s.Query(pitch, nSongs, delta)
	for i, sm := range ranked {
		if sm.SongID == targetSong {
			return i + 1
		}
	}
	return 0
}

func testSongs(seed int64, count int) []music.Song {
	return music.GenerateSongs(seed, count, 60, 120)
}

func TestBuildBasics(t *testing.T) {
	songs := testSongs(1, 20)
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSongs() != 20 {
		t.Errorf("NumSongs = %d", s.NumSongs())
	}
	if s.NumPhrases() < 20*2 {
		t.Errorf("NumPhrases = %d, expected several per song", s.NumPhrases())
	}
	if _, ok := s.PhraseByID(0); !ok {
		t.Error("PhraseByID(0) failed")
	}
	if _, ok := s.PhraseByID(int64(s.NumPhrases())); ok {
		t.Error("out-of-range phrase id accepted")
	}
}

func TestBuildEmpty(t *testing.T) {
	// An empty corpus is a valid starting state (a node started with
	// -songs -1 is filled by uploads): queries answer with no matches, and
	// the first AddSong starts ids at 0.
	s, err := Build(nil, Options{})
	if err != nil {
		t.Fatalf("empty song list rejected: %v", err)
	}
	if got, _ := s.Query(music.OdeToJoy().TimeSeries(), 3, 0.1); len(got) != 0 {
		t.Fatalf("empty system query: %d matches", len(got))
	}
	song, err := s.AddSongTitled("first", music.OdeToJoy())
	if err != nil {
		t.Fatal(err)
	}
	if song.ID != 0 {
		t.Fatalf("first id %d, want 0", song.ID)
	}
	if got, _ := s.Query(music.OdeToJoy().TimeSeries(), 3, 0.1); len(got) == 0 {
		t.Fatal("no matches after first upload")
	}
}

func TestBuildErrors(t *testing.T) {
	bad := []music.Song{{ID: 1, Melody: music.Melody{}}}
	if _, err := Build(bad, Options{}); err == nil {
		t.Error("invalid melody accepted")
	}
	dup := []music.Song{
		{ID: 1, Melody: music.OdeToJoy()},
		{ID: 1, Melody: music.TwinkleTwinkle()},
	}
	if _, err := Build(dup, Options{}); err == nil {
		t.Error("duplicate song id accepted")
	}
}

func TestQueryExactMelodyRanksFirst(t *testing.T) {
	songs := testSongs(3, 50)
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		// Query with a phrase of the song itself, shifted and
		// tempo-scaled: normal forms make this an exact match.
		ph, _ := s.PhraseByID(int64(i * 7 % s.NumPhrases()))
		q := ph.Melody.Transpose(5).ScaleTempo(2).TimeSeries()
		matches, _ := s.Query(q, 3, 0.1)
		if len(matches) == 0 {
			t.Fatalf("no matches")
		}
		if matches[0].SongID != ph.SongID || matches[0].Dist > 1e-9 {
			t.Errorf("phrase %d: top match %+v, want song %d at 0",
				i, matches[0], ph.SongID)
		}
	}
}

func TestRankHummedQueries(t *testing.T) {
	songs := testSongs(4, 40)
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	singer := hum.GoodSinger()
	top1 := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		ph, _ := s.PhraseByID(int64(r.Intn(s.NumPhrases())))
		q := singer.RenderPitch(ph.Melody, r)
		q = hum.StripSilence(q)
		rank := s.Rank(q, ph.SongID, 0.1)
		if rank == 0 {
			t.Fatalf("target song not ranked")
		}
		if rank == 1 {
			top1++
		}
	}
	// A good singer on a 40-song database should mostly hit rank 1.
	if top1 < trials/2 {
		t.Errorf("only %d/%d rank-1 retrievals for good singer", top1, trials)
	}
}

func TestRankUnknownSong(t *testing.T) {
	s, err := Build(testSongs(6, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rank := s.Rank(ts.Constant(50, 60), 999, 0.1); rank != 0 {
		t.Errorf("rank of absent song = %d", rank)
	}
}

func TestQueryEmptyPitch(t *testing.T) {
	s, err := Build(testSongs(7, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Query(ts.Series{}, 3, 0.1); got != nil {
		t.Error("empty query should return nil")
	}
}

func TestQueryReturnsDistinctSongs(t *testing.T) {
	s, err := Build(testSongs(8, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := s.phrases[0].Melody.TimeSeries()
	got, _ := s.Query(q, 10, 0.1)
	seen := map[int64]bool{}
	for _, m := range got {
		if seen[m.SongID] {
			t.Fatalf("song %d appears twice", m.SongID)
		}
		seen[m.SongID] = true
	}
	if len(got) != 10 {
		t.Errorf("got %d songs, want 10", len(got))
	}
}

func TestBuiltinSongsSystem(t *testing.T) {
	s, err := Build(music.BuiltinSongs(), Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	q := hum.GoodSinger().Hum(music.TwinkleTwinkle(), r)
	matches, _ := s.Query(q, 3, 0.1)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].Title != "Twinkle, Twinkle, Little Star" {
		t.Errorf("top match = %q", matches[0].Title)
	}
}

func TestSongsAccessor(t *testing.T) {
	songs := testSongs(99, 8)
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Songs()
	if len(got) != 8 {
		t.Fatalf("Songs returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatal("Songs not sorted by id")
		}
	}
	if got[0].Title != songs[0].Title {
		t.Errorf("title mismatch: %q", got[0].Title)
	}
}

func TestRankPhraseEdgeCases(t *testing.T) {
	s, err := Build(testSongs(98, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.RankPhrase(ts.Constant(50, 60), -1, 0.1) != 0 {
		t.Error("negative phrase id ranked")
	}
	if s.RankPhrase(ts.Constant(50, 60), int64(s.NumPhrases()), 0.1) != 0 {
		t.Error("out-of-range phrase id ranked")
	}
	if s.RankPhrase(ts.Series{}, 0, 0.1) != 0 {
		t.Error("empty query ranked")
	}
}

func TestQueryGrowLoopCoversManyPhrasesPerSong(t *testing.T) {
	// One song with many phrases plus a few decoys: its phrases must fold
	// into one result however many of them rank before the decoys.
	songs := testSongs(402, 6)
	big := music.GenerateMelody(rand.New(rand.NewSource(403)), 600)
	songs = append(songs, music.Song{ID: 100, Title: "Big Song", Melody: big})
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ph, _ := s.PhraseByID(0)
	// Request every song: the search has to cover every phrase.
	matches, _ := s.Query(ph.Melody.TimeSeries(), s.NumSongs(), 0.1)
	if len(matches) != s.NumSongs() {
		t.Errorf("got %d songs, want %d", len(matches), s.NumSongs())
	}
	seen := map[int64]bool{}
	for _, m := range matches {
		if seen[m.SongID] {
			t.Fatal("duplicate song")
		}
		seen[m.SongID] = true
	}
}

func TestAddSongErrors(t *testing.T) {
	s, err := Build(testSongs(404, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSong(music.Song{ID: 0, Melody: music.OdeToJoy()}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := s.AddSong(music.Song{ID: 99, Melody: music.Melody{}}); err == nil {
		t.Error("invalid melody accepted")
	}
}

// TestAddSongTitledNextID: an upload gets the smallest id strictly greater
// than every song id, whichever way those ids arrived — sparse through
// Build, by id through AddSong — and 0 in an empty database.
func TestAddSongTitledNextID(t *testing.T) {
	withIDs := func(ids ...int64) []music.Song {
		songs := testSongs(406, len(ids))
		for i := range songs {
			songs[i].ID = ids[i]
		}
		return songs
	}
	upload := func(s *System) int64 {
		t.Helper()
		song, err := s.AddSongTitled("upload", music.OdeToJoy())
		if err != nil {
			t.Fatal(err)
		}
		return song.ID
	}
	s, err := Build(withIDs(5, 2, 9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if id := upload(s); id != 10 {
		t.Errorf("after Build over {5, 2, 9}: id %d, want 10", id)
	}
	if err := s.AddSong(withIDs(40)[0]); err != nil {
		t.Fatal(err)
	}
	if id := upload(s); id != 41 {
		t.Errorf("after AddSong(40): id %d, want 41", id)
	}
	empty, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if id := upload(empty); id != 0 {
		t.Errorf("empty database: id %d, want 0", id)
	}
}

// motifSongs is a database in which one song's near-identical phrases crowd
// the whole front of the phrase ranking: song 100 is a 15-note motif
// repeated 32 times, so a motif query sits at nearly zero distance from
// every one of its phrases, while the decoys land far away.
func motifSongs() (songs []music.Song, pitch ts.Series) {
	pattern := []int{60, 62, 64, 65, 67, 69, 67, 65, 64, 62, 60, 59, 57, 59, 60}
	motif := music.Melody{}
	for rep := 0; rep < 32; rep++ {
		for _, p := range pattern {
			motif = append(motif, music.Note{Pitch: p, Duration: 2})
		}
	}
	songs = append(testSongs(405, 6), music.Song{ID: 100, Title: "Motif Song", Melody: motif})
	return songs, motif[:len(pattern)].TimeSeries()
}

// TestQueryCtxBudgetBoundsTheSinglePass: lim.MaxExactDTW bounds the one
// traversal a query now is. With a budget below the exact DTWs the
// unbudgeted query makes, the pass stops within it, says so, and still
// returns a ranking of distinct songs in ascending (distance, song id)
// order.
func TestQueryCtxBudgetBoundsTheSinglePass(t *testing.T) {
	songs, pitch := motifSongs()
	const topK, delta = 3, 0.1
	s, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, stats, err := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded || len(full) != topK {
		t.Fatalf("unbudgeted query degraded=%v with %d songs, want %d", stats.Degraded, len(full), topK)
	}
	if stats.ExactDTW < topK {
		t.Fatalf("stats.ExactDTW = %d, below the %d songs returned", stats.ExactDTW, topK)
	}

	budget := stats.ExactDTW / 2
	part, stats, err := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{MaxExactDTW: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Fatalf("budget %d below the %d DTWs the query needs, not degraded", budget, 2*budget)
	}
	if stats.ExactDTW > budget {
		t.Errorf("%d exact DTWs under a budget of %d", stats.ExactDTW, budget)
	}
	seen := map[int64]bool{}
	for i, m := range part {
		if seen[m.SongID] {
			t.Errorf("song %d twice in the partial ranking", m.SongID)
		}
		seen[m.SongID] = true
		if i > 0 && (m.Dist < part[i-1].Dist || (m.Dist == part[i-1].Dist && m.SongID < part[i-1].SongID)) {
			t.Errorf("partial ranking out of order at %d: %+v", i, part)
		}
	}
}
