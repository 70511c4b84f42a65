package qbh

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"warping/internal/hum"
	"warping/internal/pager"
	"warping/internal/ts"
)

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

	// And so must a write to a shard (AddSong does not serialize with Save
	// in the memory-only system).
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

// Every build configuration — shards {1, 4, 7} × {RAM, a 16-page pool} —
// returns the brute-force oracle's ranking: songs, distances and order.
// Sharding and the storage mode are invisible to callers.
func TestShardedSystemMatchesUnsharded(t *testing.T) {
	songs := testSongs(61, 40)
	r := rand.New(rand.NewSource(62))
	pitches := make([]ts.Series, 5)
	for i := range pitches {
		pitches[i] = hum.GoodSinger().RenderPitch(songs[i*3].Melody, r)
	}
	for _, shards := range []int{1, 4, 7} {
		for _, paged := range []bool{false, true} {
			opts := Options{Shards: shards}
			if paged {
				opts.Pager = pager.Config{Dir: t.TempDir(), PoolPages: 16}
			}
			sys, err := Build(songs, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := sys.ShardStats()
			if st.Shards != shards {
				t.Fatalf("ShardStats.Shards = %d, want %d", st.Shards, shards)
			}
			total := 0
			for _, n := range st.Lens {
				total += n
			}
			if total != sys.NumPhrases() {
				t.Fatalf("shard lens sum to %d, want %d phrases", total, sys.NumPhrases())
			}
			for i, pitch := range pitches {
				want := bruteSongRanking(sys, pitch, 5, 0.1)
				got, _ := sys.Query(pitch, 5, 0.1)
				if len(got) != len(want) {
					t.Fatalf("shards=%d paged=%v query %d: %d matches, want %d", shards, paged, i, len(got), len(want))
				}
				for j := range got {
					if got[j].SongID != want[j].SongID || math.Abs(got[j].Dist-want[j].Dist) > 1e-9 {
						t.Fatalf("shards=%d paged=%v query %d match %d: {%d %v}, want {%d %v}",
							shards, paged, i, j, got[j].SongID, got[j].Dist, want[j].SongID, want[j].Dist)
					}
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Shards survives a Save/Load round trip (it is part of the persisted
// Options), so a durable system keeps its layout across restarts.
func TestShardedOptionsPersist(t *testing.T) {
	sys, err := Build(testSongs(63, 12), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st := back.ShardStats(); st.Shards != 3 {
		t.Fatalf("reloaded layout = %d shards, want 3", st.Shards)
	}
	if back.NumPhrases() != sys.NumPhrases() {
		t.Fatalf("reloaded phrases = %d, want %d", back.NumPhrases(), sys.NumPhrases())
	}
}

// AddSongs and queries interleave freely on a sharded system; the real
// assertion is the race detector plus the final consistency checks.
func TestShardedSystemConcurrentAddAndQuery(t *testing.T) {
	songs := testSongs(64, 20)
	sys, err := Build(songs, Options{Shards: 4, PhraseMin: 8, PhraseMax: 20})
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
