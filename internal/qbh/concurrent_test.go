package qbh

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/ts"
)

func newConcurrentSystem(t *testing.T) (*System, []music.Song) {
	t.Helper()
	songs := music.BuiltinSongs()
	for _, s := range music.GenerateSongs(71, 20, 150, 250) {
		s.ID += int64(len(music.BuiltinSongs()))
		songs = append(songs, s)
	}
	sys, err := Build(songs, Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	return sys, songs
}

// TestConcurrentStress runs Query, QueryCtx, AddSongTitled, Songs, Save,
// and the counters in parallel against one system. Its real assertion is
// the race detector: `go test -race` must pass.
func TestConcurrentStress(t *testing.T) {
	c, songs := newConcurrentSystem(t)
	// Pre-render query pitches and upload melodies (rand.Rand is not
	// goroutine-safe).
	r := rand.New(rand.NewSource(72))
	pitches := make([]ts.Series, 6)
	for i := range pitches {
		pitches[i] = hum.GoodSinger().RenderPitch(songs[i%len(songs)].Melody, r)
	}
	melodies := make([]music.Melody, 4)
	for i := range melodies {
		melodies[i] = music.GenerateMelody(rand.New(rand.NewSource(int64(100+i))), 60)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				m, _, err := c.QueryCtx(context.Background(), pitches[i], 3, 0.1, index.Limits{})
				if err != nil {
					errs <- err
					return
				}
				if len(m) == 0 {
					errs <- fmt.Errorf("query %d/%d: no matches", i, j)
					return
				}
			}
		}(i)
	}
	for i := range melodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.AddSongTitled(fmt.Sprintf("Stress %d", i), melodies[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if n := len(c.Songs()); n == 0 {
					errs <- fmt.Errorf("empty song list")
					return
				}
				_ = c.NumSongs()
				_ = c.NumPhrases()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			if err := c.Save(io.Discard); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAddSongTitledUniqueIDs is the TOCTOU regression test: concurrent
// uploads must never be assigned the same song id.
func TestAddSongTitledUniqueIDs(t *testing.T) {
	c, songs := newConcurrentSystem(t)
	const uploads = 16
	melodies := make([]music.Melody, uploads)
	for i := range melodies {
		melodies[i] = music.GenerateMelody(rand.New(rand.NewSource(int64(200+i))), 50)
	}
	ids := make(chan int64, uploads)
	var wg sync.WaitGroup
	for i := 0; i < uploads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			song, err := c.AddSongTitled(fmt.Sprintf("Upload %d", i), melodies[i])
			if err != nil {
				t.Error(err)
				return
			}
			ids <- song.ID
		}(i)
	}
	wg.Wait()
	close(ids)
	seen := map[int64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate song id %d allocated", id)
		}
		seen[id] = true
	}
	if len(seen) != uploads {
		t.Fatalf("%d unique ids for %d uploads", len(seen), uploads)
	}
	if want := len(songs) + uploads; c.NumSongs() != want {
		t.Errorf("NumSongs = %d, want %d", c.NumSongs(), want)
	}
}

// TestQueryCtxCancelUnderConcurrentAdd cancels a query while an AddSong is
// racing it; both must finish cleanly (checked under -race).
func TestQueryCtxCancelUnderConcurrentAdd(t *testing.T) {
	c, songs := newConcurrentSystem(t)
	r := rand.New(rand.NewSource(73))
	pitch := hum.GoodSinger().RenderPitch(songs[1].Melody, r)
	melody := music.GenerateMelody(rand.New(rand.NewSource(300)), 60)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cancel() // races the query below: either outcome is legal
	}()
	go func() {
		defer wg.Done()
		if _, err := c.AddSongTitled("Racer", melody); err != nil {
			t.Error(err)
		}
	}()
	_, _, err := c.QueryCtx(ctx, pitch, 3, 0.1, index.Limits{})
	if err != nil && err != context.Canceled {
		t.Errorf("unexpected error %v", err)
	}
	wg.Wait()
}

// gatedWriter blocks inside Write until released, signalling when the
// first write arrives. It simulates a slow snapshot destination (an NFS
// mount, a throttled disk) to prove Save no longer excludes queries.
type gatedWriter struct {
	firstWrite chan struct{}
	unblock    chan struct{}
	once       sync.Once
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.firstWrite) })
	<-w.unblock
	return len(p), nil
}

// Regression test for the Save stall: Concurrent.Save used to take the
// write lock, so a slow snapshot drained and then blocked every in-flight
// query for as long as the writer took. Save is read-pure; here the
// snapshot writer stays blocked until a query issued mid-Save completes —
// under the old locking this deadlocks (the query waits for Save's write
// lock, Save's writer waits for the query).
func TestSaveDoesNotBlockQueries(t *testing.T) {
	c, songs := newConcurrentSystem(t)
	r := rand.New(rand.NewSource(7))
	pitch := hum.GoodSinger().RenderPitch(songs[0].Melody, r)

	w := &gatedWriter{firstWrite: make(chan struct{}), unblock: make(chan struct{})}
	saveDone := make(chan error, 1)
	go func() { saveDone <- c.Save(w) }()

	select {
	case <-w.firstWrite:
	case <-time.After(10 * time.Second):
		t.Fatal("Save never started writing")
	}

	// Save is now mid-write and stuck. A query must still make progress.
	queryDone := make(chan int, 1)
	go func() {
		m, _ := c.Query(pitch, 3, 0.1)
		queryDone <- len(m)
	}()
	select {
	case n := <-queryDone:
		if n == 0 {
			t.Error("query during Save returned no matches")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query stalled behind an in-flight Save")
	}

	// And so must an upload (AddSong does not serialize with Save in the
	// memory-only system).
	addDone := make(chan error, 1)
	go func() {
		_, err := c.AddSongTitled("mid-save upload", songs[1].Melody)
		addDone <- err
	}()
	select {
	case err := <-addDone:
		if err != nil {
			t.Errorf("AddSongTitled during Save: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("AddSongTitled stalled behind an in-flight Save")
	}

	close(w.unblock)
	if err := <-saveDone; err != nil {
		t.Fatalf("Save: %v", err)
	}
}

// AddSongs and queries interleave freely; the real assertion is the race
// detector — the proof that the index's own lock is enough — plus the final
// consistency checks. (Named for the sharded index it first ran on; the
// floor file knows the test by it.)
func TestShardedSystemConcurrentAddAndQuery(t *testing.T) {
	songs := testSongs(64, 20)
	sys, err := Build(songs, Options{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(65))
	pitch := hum.GoodSinger().RenderPitch(songs[2].Melody, r)
	uploads := testSongs(66, 12)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 4; i < (w+1)*4; i++ {
				if _, err := sys.AddSongTitled(uploads[i].Title, uploads[i].Melody); err != nil {
					t.Errorf("AddSongTitled: %v", err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if m, _ := sys.Query(pitch, 3, 0.1); len(m) == 0 {
					t.Error("query returned no matches during concurrent adds")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := sys.NumSongs(), len(songs)+len(uploads); got != want {
		t.Fatalf("NumSongs = %d, want %d", got, want)
	}
	if sys.Index().Len() != sys.NumPhrases() {
		t.Fatalf("index holds %d series, metadata %d phrases", sys.Index().Len(), sys.NumPhrases())
	}
}
