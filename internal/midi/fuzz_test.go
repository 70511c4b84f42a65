package midi

import (
	"testing"

	"warping/internal/music"
)

// heldNote is a 37-byte SMF of division 1 whose one note is held 0x0FFFFFFF
// ticks: 2^30 sixteenths, a time series of 8 GiB.
var heldNote = []byte{
	'M', 'T', 'h', 'd', 0, 0, 0, 6, 0, 0, 0, 1, 0, 1,
	'M', 'T', 'r', 'k', 0, 0, 0, 15,
	0x00, 0x90, 0x3C, 0x40, // note on
	0xFF, 0xFF, 0xFF, 0x7F, 0x80, 0x3C, 0x00, // note off 0x0FFFFFFF ticks later
	0x00, 0xFF, 0x2F, 0x00, // end of track
}

// FuzzParse exercises the SMF parser with arbitrary bytes. Run with
// `go test -fuzz=FuzzParse ./internal/midi`; without -fuzz the seed corpus
// runs as a regular test. The parser must never panic, anything it parses
// must survive melody extraction, and a melody music.Melody.Validate accepts
// renders a time series within music.MaxMelodyDuration.
func FuzzParse(f *testing.F) {
	// Seed corpus: valid files, a truncation, and raw junk.
	valid, err := EncodeMelody(music.TwinkleTwinkle(), 500000)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte("MThd"))
	f.Add([]byte{})
	f.Add([]byte("RIFFnotmidi"))
	long, err := EncodeMelody(music.Greensleeves(), 250000)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(long)
	f.Add(heldNote)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		// Successfully parsed input must be safe to process further.
		m, err := ExtractMelody(file)
		if err != nil || m.Validate() != nil {
			return
		}
		if n := len(m.TimeSeries()); n > music.MaxMelodyDuration {
			t.Fatalf("a valid melody renders %d samples", n)
		}
	})
}

// TestHeldNoteRefused: the held note parses and extracts, and Validate
// refuses the melody.
func TestHeldNoteRefused(t *testing.T) {
	if len(heldNote) != 37 {
		t.Fatalf("the file is %d bytes", len(heldNote))
	}
	m, err := DecodeMelody(heldNote)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0].Duration != 0x0FFFFFFF*4 {
		t.Fatalf("decoded %v, want one note of %d sixteenths", m, 0x0FFFFFFF*4)
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted a note of 2^30 sixteenths")
	}
}

// FuzzRoundTrip checks that melodies built from fuzzed parameters encode
// and decode losslessly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(60), uint8(4), uint8(10))
	f.Add(uint8(0), uint8(1), uint8(1))
	f.Add(uint8(127), uint8(200), uint8(30))
	f.Fuzz(func(t *testing.T, pitch, dur, count uint8) {
		if dur == 0 || count == 0 {
			return
		}
		m := make(music.Melody, 0, count)
		for i := uint8(0); i < count; i++ {
			p := int(pitch) + int(i)%12
			if p > 127 {
				p -= 12
			}
			m = append(m, music.Note{Pitch: p, Duration: int(dur)})
		}
		data, err := EncodeMelody(m, 500000)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := DecodeMelody(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(back) != len(m) {
			t.Fatalf("lost notes: %d vs %d", len(back), len(m))
		}
		for i := range m {
			if back[i] != m[i] {
				t.Fatalf("note %d: %v vs %v", i, back[i], m[i])
			}
		}
	})
}
