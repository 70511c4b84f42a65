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
//
// Flags are checked before anything is built, by the rules the server
// applies to a query (-top 1..100, -delta in [0, 1]); a bad value exits
// with status 2.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"warping/internal/audio"
	"warping/internal/hum"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/ts"
	"warping/internal/wav"
)

// options holds the value of every qbh flag.
type options struct {
	songCount int
	midiDir   string
	singer    string
	target    string
	delta     float64
	topK      int
	seed      int64
	wavOut    string
	wavIn     string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.IntVar(&o.songCount, "songs", 100, "number of generated songs added to the database")
	fs.StringVar(&o.midiDir, "mididir", "", "directory of .mid files to index instead of generated songs")
	fs.StringVar(&o.singer, "singer", "good", "singer model: good or poor")
	fs.StringVar(&o.target, "target", "", "substring of the song title to hum (random if empty)")
	fs.Float64Var(&o.delta, "delta", 0.1, "warping width (2k+1)/n, in [0, 1]")
	fs.IntVar(&o.topK, "top", 5, "number of results to print, 1..100")
	fs.Int64Var(&o.seed, "seed", 42, "random seed for the performance")
	fs.StringVar(&o.wavOut, "wavout", "", "write the simulated hum to this WAV file")
	fs.StringVar(&o.wavIn, "wavin", "", "query with a recorded hum from this WAV file")
	return o
}

// validate applies the server's query rules to -top and -delta, and refuses
// what the database or the singer cannot be built from.
func (o *options) validate() error {
	switch {
	case o.songCount < 0:
		return fmt.Errorf("invalid -songs %d: want 0 or more", o.songCount)
	case o.topK < 1 || o.topK > 100:
		return fmt.Errorf("invalid -top %d: want 1..100", o.topK)
	case !(o.delta >= 0 && o.delta <= 1): // NaN too
		return fmt.Errorf("invalid -delta %v: want a warping width in [0, 1]", o.delta)
	case o.singer != "good" && o.singer != "poor":
		return fmt.Errorf("unknown singer %q (use good or poor)", o.singer)
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	songs, err := midi.LoadCorpus(o.midiDir, o.songCount, func(name string, err error) {
		fmt.Fprintf(os.Stderr, "skipping %s: %v\n", name, err)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys, err := qbh.Build(songs, qbh.Options{PhraseMin: 10, PhraseMax: 25})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Database: %d songs, %d indexed phrases\n", sys.NumSongs(), sys.NumPhrases())

	r := rand.New(rand.NewSource(o.seed))
	var query ts.Series
	var targetID int64 = -1

	if o.wavIn != "" {
		data, err := os.ReadFile(o.wavIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		samples, rate, err := wav.Decode(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rate < audio.MinSampleRate || rate > audio.MaxSampleRate {
			fmt.Fprintf(os.Stderr, "%s: sample rate %d Hz is outside the %d–%d Hz accepted\n", o.wavIn, rate, audio.MinSampleRate, audio.MaxSampleRate)
			os.Exit(1)
		}
		query = hum.StripSilence(audio.TrackPitch(samples, rate))
		fmt.Printf("\nQuery from %s: %d voiced 10ms frames\n\n", o.wavIn, len(query))
	} else {
		singer := hum.GoodSinger()
		if o.singer == "poor" {
			singer = hum.PoorSinger()
		}
		song, err := pickTarget(songs, o.target, r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		targetID = song.ID
		phrases := music.SegmentPhrases(song.Melody, 10, 25)
		phrase := phrases[r.Intn(len(phrases))]
		fmt.Printf("\nHumming (%s singer): %q, phrase of %d notes\n",
			singer.Name, song.Title, phrase.NumNotes())
		samples := singer.RenderAudio(phrase, r)
		if o.wavOut != "" {
			var buf bytes.Buffer
			if err := wav.Encode(&buf, samples, audio.DefaultSampleRate); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(o.wavOut, buf.Bytes(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("hum audio written to %s (%d samples)\n", o.wavOut, len(samples))
		}
		query = hum.StripSilence(audio.TrackPitch(samples, audio.DefaultSampleRate))
		fmt.Printf("Pitch-tracked query: %d voiced 10ms frames\n\n", len(query))
	}

	matches, stats := sys.Query(query, o.topK, o.delta)
	fmt.Printf("Top %d matches (warping width %.2f):\n", len(matches), o.delta)
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

func pickTarget(songs []music.Song, target string, r *rand.Rand) (music.Song, error) {
	if target == "" {
		return songs[r.Intn(len(songs))], nil
	}
	for _, s := range songs {
		if strings.Contains(strings.ToLower(s.Title), strings.ToLower(target)) {
			return s, nil
		}
	}
	return music.Song{}, fmt.Errorf("no song title contains %q", target)
}
