// Command qbh is an interactive demonstration of the query-by-humming
// system: it builds a song database (built-in public-domain tunes plus
// generated songs, or a directory of MIDI files), simulates a hummed query
// of a target song with a configurable singer model — or takes a recorded
// hum from a WAV file — and prints the ranked retrieval results with
// search-cost statistics.
//
// Usage:
//
//	qbh                              # hum a random song, good singer
//	qbh -target twinkle -singer poor # poor rendition of a known tune
//	qbh -songs 500 -delta 0.2        # bigger database, wider warping
//	qbh -mididir ./corpus            # index a directory of .mid files
//	qbh -wavout hum.wav              # save the simulated hum as audio
//	qbh -wavin hum.wav               # query from a recorded hum
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"warping"
)

func main() {
	songCount := flag.Int("songs", 100, "number of generated songs added to the database")
	midiDir := flag.String("mididir", "", "directory of .mid files to index instead of generated songs")
	singerName := flag.String("singer", "good", "singer model: good or poor")
	target := flag.String("target", "", "substring of the song title to hum (random if empty)")
	delta := flag.Float64("delta", 0.1, "warping width (2k+1)/n")
	topK := flag.Int("top", 5, "number of results to print")
	seed := flag.Int64("seed", 42, "random seed for the performance")
	wavOut := flag.String("wavout", "", "write the simulated hum to this WAV file")
	wavIn := flag.String("wavin", "", "query with a recorded hum from this WAV file")
	flag.Parse()

	sys, songs, err := buildDatabase(*midiDir, *songCount)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Database: %d songs, %d indexed phrases\n", sys.NumSongs(), sys.NumPhrases())

	r := rand.New(rand.NewSource(*seed))
	var query warping.Series
	var targetID int64 = -1

	if *wavIn != "" {
		data, err := os.ReadFile(*wavIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		samples, rate, err := warping.DecodeWAV(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rate < warping.MinSampleRate || rate > warping.MaxSampleRate {
			fmt.Fprintf(os.Stderr, "%s: sample rate %d Hz is outside the %d–%d Hz accepted\n", *wavIn, rate, warping.MinSampleRate, warping.MaxSampleRate)
			os.Exit(1)
		}
		query = warping.StripSilence(warping.TrackPitch(samples, rate))
		fmt.Printf("\nQuery from %s: %d voiced 10ms frames\n\n", *wavIn, len(query))
	} else {
		var singer warping.Singer
		switch *singerName {
		case "good":
			singer = warping.GoodSinger()
		case "poor":
			singer = warping.PoorSinger()
		default:
			fmt.Fprintf(os.Stderr, "unknown singer %q (use good or poor)\n", *singerName)
			os.Exit(2)
		}
		song, err := pickTarget(songs, *target, r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		targetID = song.ID
		phrases := warping.SegmentPhrases(song.Melody, 10, 25)
		phrase := phrases[r.Intn(len(phrases))]
		fmt.Printf("\nHumming (%s singer): %q, phrase of %d notes\n",
			singer.Name, song.Title, phrase.NumNotes())
		audio := warping.HumAudio(singer, phrase, r)
		if *wavOut != "" {
			var buf bytes.Buffer
			if err := warping.EncodeWAV(&buf, audio, warping.DefaultSampleRate); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(*wavOut, buf.Bytes(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("hum audio written to %s (%d samples)\n", *wavOut, len(audio))
		}
		query = warping.StripSilence(warping.TrackPitch(audio, warping.DefaultSampleRate))
		fmt.Printf("Pitch-tracked query: %d voiced 10ms frames\n\n", len(query))
	}

	matches, stats := sys.Query(query, *topK, *delta)
	fmt.Printf("Top %d matches (warping width %.2f):\n", len(matches), *delta)
	for i, m := range matches {
		marker := " "
		if m.SongID == targetID {
			marker = "*"
		}
		fmt.Printf("%s %2d. %-40s  dist=%8.2f  (phrase %d)\n",
			marker, i+1, m.Title, m.Dist, m.PhraseOrdinal)
	}
	fmt.Printf("\nSearch cost: %d candidates from index, %d after LB filter, %d exact DTW, %d page accesses\n",
		stats.Candidates, stats.LBSurvivors, stats.ExactDTW, stats.PageAccesses)
}

// buildDatabase assembles the QBH system from a MIDI directory or
// generated songs.
func buildDatabase(midiDir string, songCount int) (*warping.QBH, []warping.Song, error) {
	var songs []warping.Song
	if midiDir != "" {
		entries, err := os.ReadDir(midiDir)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".mid" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(midiDir, e.Name()))
			if err != nil {
				return nil, nil, err
			}
			m, err := warping.DecodeMIDI(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "skipping %s: %v\n", e.Name(), err)
				continue
			}
			songs = append(songs, warping.Song{
				ID:     int64(len(songs)),
				Title:  strings.TrimSuffix(e.Name(), ".mid"),
				Melody: m,
			})
		}
		if len(songs) == 0 {
			return nil, nil, fmt.Errorf("no parseable .mid files in %s", midiDir)
		}
	} else {
		songs = warping.BuiltinSongs()
		gen := warping.GenerateSongs(7, songCount, 200, 400)
		for i := range gen {
			gen[i].ID += int64(len(songs))
			songs = append(songs, gen[i])
		}
	}
	sys, err := warping.BuildQBH(songs, warping.QBHOptions{PhraseMin: 10, PhraseMax: 25})
	if err != nil {
		return nil, nil, err
	}
	return sys, songs, nil
}

func pickTarget(songs []warping.Song, target string, r *rand.Rand) (warping.Song, error) {
	if target == "" {
		return songs[r.Intn(len(songs))], nil
	}
	for _, s := range songs {
		if strings.Contains(strings.ToLower(s.Title), strings.ToLower(target)) {
			return s, nil
		}
	}
	return warping.Song{}, fmt.Errorf("no song title contains %q", target)
}
