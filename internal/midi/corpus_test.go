package midi

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"warping/internal/music"
)

// TestLoadCorpusSkipsBadFiles: an unparseable file and a dangling symlink
// are reported and left out, and take no id: the two good files load as
// songs 0 and 1 in name order, titled by file name.
func TestLoadCorpusSkipsBadFiles(t *testing.T) {
	dir := t.TempDir()
	for name, m := range map[string]music.Melody{"ode.mid": music.OdeToJoy(), "twinkle.mid": music.TwinkleTwinkle()} {
		data, err := EncodeMelody(m, 500000)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.mid"), []byte("not a midi file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "missing"), filepath.Join(dir, "bad.mid")); err != nil {
		t.Fatal(err)
	}

	var skipped []string
	songs, err := LoadCorpus(dir, 0, func(name string, err error) { skipped = append(skipped, name) })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"bad.mid", "junk.mid"}; !slices.Equal(skipped, want) {
		t.Errorf("skipped %v, want %v", skipped, want)
	}
	if len(songs) != 2 {
		t.Fatalf("loaded %d songs, want 2", len(songs))
	}
	for i, want := range []struct {
		title  string
		melody music.Melody
	}{{"ode", music.OdeToJoy()}, {"twinkle", music.TwinkleTwinkle()}} {
		if s := songs[i]; s.ID != int64(i) || s.Title != want.title || !slices.Equal(s.Melody, want.melody) {
			t.Errorf("song %d: id %d title %q (%d notes), want id %d title %q", i, s.ID, s.Title, len(s.Melody), i, want.title)
		}
	}
}

// TestLoadCorpusDemo: without a directory the corpus is the built-ins then
// the generated songs numbered after them, and nothing for a negative count.
func TestLoadCorpusDemo(t *testing.T) {
	songs, err := LoadCorpus("", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	builtin := music.BuiltinSongs()
	if len(songs) != len(builtin)+3 {
		t.Fatalf("%d songs, want %d", len(songs), len(builtin)+3)
	}
	for i, s := range songs {
		if s.ID != int64(i) {
			t.Errorf("song %d has id %d", i, s.ID)
		}
	}
	if songs[0].Title != builtin[0].Title || songs[len(builtin)].Title != music.GenerateSongs(7, 1, 200, 400)[0].Title {
		t.Errorf("titles %q, %q: want the built-ins first", songs[0].Title, songs[len(builtin)].Title)
	}
	if none, err := LoadCorpus("", -1, nil); err != nil || len(none) != 0 {
		t.Errorf("negative count: %d songs, err %v", len(none), err)
	}
	if _, err := LoadCorpus(t.TempDir(), 0, nil); err == nil {
		t.Error("a directory with no .mid file loaded")
	}
}
