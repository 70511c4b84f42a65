package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/store"
)

func testMIDI(t testing.TB, seed int64) []byte {
	t.Helper()
	tune := music.GenerateMelody(rand.New(rand.NewSource(seed)), 30)
	data, err := midi.EncodeMelody(tune, 500000)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func openDurableBackend(t *testing.T, dir string, fsys store.FS, build func() (*qbh.System, error)) *qbh.Durable {
	t.Helper()
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:    fsys,
		Build: build,
		Logf:  func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func durableTestBuild() (*qbh.System, error) {
	return qbh.Build(music.GenerateSongs(7, 5, 30, 50), qbh.Options{
		NormalLen: 32, Dim: 4, PhraseMin: 8, PhraseMax: 12,
	})
}

// POST /songs through a durable backend must survive a server restart.
func TestServerDurableUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := openDurableBackend(t, dir, store.OS(), durableTestBuild)
	h := NewBackend(d)
	srv := httptest.NewServer(h)

	midiBytes := testMIDI(t, 41)
	resp, err := http.Post(srv.URL+"/songs?title=Durable+Upload", "audio/midi", bytes.NewReader(midiBytes))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var created SongInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a new backend over the same directory must already hold the
	// uploaded song, with no builder involved.
	d2 := openDurableBackend(t, dir, store.OS(), nil)
	defer d2.Close()
	srv2 := httptest.NewServer(NewBackend(d2))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/songs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var songs []SongInfo
	if err := json.NewDecoder(resp.Body).Decode(&songs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range songs {
		if s.ID == created.ID && s.Title == "Durable Upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("uploaded song missing after restart: %+v", songs)
	}
}

// /stats exposes the durability section for durable backends and omits it
// for memory-only ones.
func TestServerStatsDurabilitySection(t *testing.T) {
	d := openDurableBackend(t, t.TempDir(), store.OS(), durableTestBuild)
	defer d.Close()
	srv := httptest.NewServer(NewBackend(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("durable backend /stats has no durability section")
	}
	if st.Durability.SnapshotBytes == 0 || st.Durability.Dir == "" {
		t.Errorf("durability section incomplete: %+v", st.Durability)
	}

	sys, err := durableTestBuild()
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewBackend(sys))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Durability != nil {
		t.Error("memory-only backend /stats has a durability section")
	}
}

// An fsync failure turns POST /songs into a 503, never a false 201.
func TestServerDurableFsyncFailure503(t *testing.T) {
	ffs := store.NewFaultFS(store.OS())
	d := openDurableBackend(t, t.TempDir(), ffs, durableTestBuild)
	defer d.Close()
	srv := httptest.NewServer(NewBackend(d))
	defer srv.Close()

	ffs.FailSyncs(errors.New("disk detached"))
	resp, err := http.Post(srv.URL+"/songs?title=Doomed", "audio/midi", bytes.NewReader(testMIDI(t, 42)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}
