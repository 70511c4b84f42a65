// Command midigen generates a corpus of Standard MIDI Files for testing
// and demos — the stand-in for the paper's collection of 35,000 MIDI files
// "from the Internet". Generation is deterministic per seed.
//
// Usage:
//
//	midigen -out ./corpus -count 1000 -seed 7
//	midigen -verify ./corpus        # re-parse every file, report stats
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"warping/internal/midi"
	"warping/internal/music"
)

func main() {
	out := flag.String("out", "", "directory to write generated .mid files into")
	count := flag.Int("count", 100, "number of files to generate")
	seed := flag.Int64("seed", 1, "generation seed")
	minNotes := flag.Int("min-notes", 15, "minimum notes per melody")
	maxNotes := flag.Int("max-notes", 30, "maximum notes per melody")
	verify := flag.String("verify", "", "directory of .mid files to re-parse and summarize")
	flag.Parse()

	switch {
	case *out != "":
		if err := generate(*out, *count, *seed, *minNotes, *maxNotes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *verify != "":
		if err := verifyDir(*verify); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "specify -out DIR to generate or -verify DIR to check")
		os.Exit(2)
	}
}

func generate(dir string, count int, seed int64, minNotes, maxNotes int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	songs := music.GenerateSongs(seed, count, minNotes, maxNotes)
	r := rand.New(rand.NewSource(seed + 1))
	for i, song := range songs {
		// Vary the tempo per file like a real collection would.
		tempo := uint32(400000 + r.Intn(400000)) // 150 down to 75 BPM
		data, err := midi.EncodeMelody(song.Melody, tempo)
		if err != nil {
			return fmt.Errorf("song %d: %w", i, err)
		}
		name := filepath.Join(dir, fmt.Sprintf("song%05d.mid", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d MIDI files to %s\n", count, dir)
	return nil
}

func verifyDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files, failed, notes int
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".mid" {
			continue
		}
		files++
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		m, err := midi.DecodeMelody(data)
		if err != nil {
			failed++
			fmt.Printf("  %s: %v\n", e.Name(), err)
			continue
		}
		notes += m.NumNotes()
	}
	fmt.Printf("%d files, %d unparseable, %d total notes\n", files, failed, notes)
	if failed > 0 {
		return fmt.Errorf("%d files failed to parse", failed)
	}
	return nil
}
