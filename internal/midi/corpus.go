package midi

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"warping/internal/music"
)

// LoadCorpus returns the song database a command starts from. With a
// directory, it is the directory's .mid files in name order, numbered from 0
// and titled by file name without the extension; a file that cannot be read
// or decoded is handed to skip and left out, and a directory with no
// decodable file is an error. Without one, it is the built-in tunes followed
// by demo songs generated from seed 7 (200–400 notes each), numbered after
// the built-ins — or no songs at all when demo is negative.
func LoadCorpus(dir string, demo int, skip func(name string, err error)) ([]music.Song, error) {
	if dir == "" {
		if demo < 0 {
			return nil, nil
		}
		songs := music.BuiltinSongs()
		first := int64(len(songs))
		for _, s := range music.GenerateSongs(7, demo, 200, 400) {
			s.ID += first
			songs = append(songs, s)
		}
		return songs, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var songs []music.Song
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".mid" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			skip(e.Name(), err)
			continue
		}
		m, err := DecodeMelody(data)
		if err != nil {
			skip(e.Name(), err)
			continue
		}
		songs = append(songs, music.Song{
			ID:     int64(len(songs)),
			Title:  strings.TrimSuffix(e.Name(), ".mid"),
			Melody: m,
		})
	}
	if len(songs) == 0 {
		return nil, fmt.Errorf("no parseable .mid files in %s", dir)
	}
	return songs, nil
}
