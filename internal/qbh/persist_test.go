package qbh

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warping/internal/hum"
	"warping/internal/store"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	songs := testSongs(71, 15)
	orig, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := loadWith(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSongs() != orig.NumSongs() || back.NumPhrases() != orig.NumPhrases() {
		t.Fatalf("shape: %d/%d vs %d/%d",
			back.NumSongs(), back.NumPhrases(), orig.NumSongs(), orig.NumPhrases())
	}
	// Identical queries must produce identical rankings.
	r := rand.New(rand.NewSource(72))
	singer := hum.GoodSinger()
	for trial := 0; trial < 5; trial++ {
		ph, _ := orig.PhraseByID(int64(trial * 3))
		q := hum.StripSilence(singer.RenderPitch(ph.Melody, r))
		a, _ := orig.Query(q, 5, 0.1)
		b, _ := back.Query(q, 5, 0.1)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].SongID != b[i].SongID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := loadWith(bytes.NewReader([]byte("not gob")), nil); err == nil {
		t.Error("garbage accepted")
	}
}

// Serializing the same system twice must yield byte-identical output, and
// a Save→Load→Save round trip must reproduce those bytes exactly — pinned
// so snapshots are diffable and dedupable.
func TestSaveDeterministic(t *testing.T) {
	sys, err := Build(testSongs(74, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := sys.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Saves of the same system differ")
	}
	back, err := loadWith(bytes.NewReader(a.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := back.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("Save after Load diverged from original bytes")
	}
}

// Empty, truncated, bit-flipped, foreign and miscounted snapshots surface
// typed errors, never a panic or a misread system.
func TestLoadTypedErrors(t *testing.T) {
	songs := testSongs(75, 6)
	sys, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := sys.snapshot()

	// Every frame boundary of the run, after the magic.
	var ends []int
	for rest := good[len(runMagic):]; len(rest) > 0; {
		var err error
		if _, rest, err = store.NextRecord(rest); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(good)-len(rest))
	}
	if len(ends) != len(songs)+1 {
		t.Fatalf("%d records in a run of %d songs", len(ends), len(songs))
	}
	flip := func(i int) []byte {
		mut := bytes.Clone(good)
		mut[i] ^= 0x20
		return mut
	}
	// A header that counts one song fewer than the records that follow.
	shortCount := appendRun(nil, runSnapshot, sys.opts, songs[:len(songs)-1])
	shortCount = store.AppendRecord(shortCount, appendSongRecord(nil, songs[len(songs)-1]))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, store.ErrTruncated},
		{"truncated magic", good[:5], store.ErrTruncated},
		{"truncated at the header's end", good[:ends[0]], store.ErrTruncated},
		{"truncated at a song's end", good[:ends[3]], store.ErrTruncated},
		{"truncated mid header", good[:len(runMagic)+6], store.ErrTruncated},
		{"truncated mid song", good[:ends[3]+20], store.ErrTruncated},
		{"truncated last byte", good[:len(good)-1], store.ErrTruncated},
		{"bit flip in magic", flip(2), store.ErrBadMagic},
		{"bit flip in header", flip(len(runMagic) + 9), store.ErrChecksum},
		{"bit flip in a song", flip(len(good) - 10), store.ErrChecksum},
		{"foreign bytes", []byte("MThd but actually a midi file, not a snapshot"), store.ErrBadMagic},
		{"a replication body", EncodeSongs(songs), ErrBadRecord},
		{"song count short by one", shortCount, ErrBadRecord},
		{"older container", append(bytes.Clone(oldSnapshotMagic[:]), good[8:]...), store.ErrVersion},
	}
	for _, tc := range cases {
		_, err := loadWith(bytes.NewReader(tc.data), nil)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRefusesGobDataDirectory: testdata/gobdir is a data directory as the
// last binary with gob records wrote it — a version-1 snapshot container
// and a version-1 WAL holding two uploads. Opening it is refused with
// store.ErrVersion and an error that names the file, and neither file is
// touched: the directory is never misread, truncated or rewritten.
func TestRefusesGobDataDirectory(t *testing.T) {
	src := filepath.Join("testdata", "gobdir")
	dir := copyDataDir(t, src)
	unchanged := func() {
		t.Helper()
		for _, name := range []string{SnapshotFileName, WALFileName} {
			want, _ := os.ReadFile(filepath.Join(src, name))
			got, err := os.ReadFile(filepath.Join(dir, name))
			if os.IsNotExist(err) && name == SnapshotFileName {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s changed after a refused open (%v)", name, err)
			}
		}
	}
	refused := func(opts DurableOptions, file string) {
		t.Helper()
		d, err := OpenDurable(dir, opts)
		if err == nil {
			d.Close()
			t.Fatal("an older data directory opened")
		}
		if path := filepath.Join(dir, file); !errors.Is(err, store.ErrVersion) || !strings.Contains(err.Error(), path) {
			t.Fatalf("got %v, want store.ErrVersion naming %s", err, path)
		}
		unchanged()
	}
	refused(DurableOptions{}, SnapshotFileName)
	// Without the snapshot, the log alone is refused: the new binary builds
	// a fresh database and stops at the old WAL rather than replay past it.
	if err := os.Remove(filepath.Join(dir, SnapshotFileName)); err != nil {
		t.Fatal(err)
	}
	refused(DurableOptions{Build: func() (*System, error) { return Build(nil, Options{}) }}, WALFileName)
}

// Save writes the system's snapshot run (System.snapshot) to w: the tests'
// way to take a snapshot without a durable directory.
func (s *System) Save(w io.Writer) error {
	_, err := w.Write(s.snapshot())
	return err
}
