// Package music models symbolic melodies — the contents of the paper's
// music database. A melody is a sequence of (Note, Duration) tuples
// (Section 3.2); its time-series representation repeats each pitch for its
// duration. The package also provides phrase segmentation (the paper
// matches whole phrases rather than subsequences), a tonal melody
// generator used to build databases at the paper's scales, and a handful
// of public-domain tunes for examples and tests.
package music

import (
	"fmt"
	"strings"

	"warping/internal/ts"
)

// Note is one melody element: a MIDI pitch number held for Duration ticks.
// Following the paper, rests are not represented ("we simply ignore the
// silent information").
type Note struct {
	// Pitch is the MIDI note number (60 = middle C). Valid range 0-127.
	Pitch int
	// Duration is the length in ticks (a tick is typically a 16th note).
	// Valid range 1-MaxNoteDuration.
	Duration int
}

// Melody is a monophonic sequence of notes.
type Melody []Note

// Duration caps, in ticks. The generator draws notes of at most 16 ticks
// and songs of at most 6 400 (400 notes); the caps leave a 64-fold and a
// 40-fold margin. A melody's time series holds one float64 per tick, so the
// song cap keeps it within 2 MiB: an uncapped upload — one note of a
// division-1 MIDI file held 2^28 ticks is 2^30 sixteenths — would allocate
// gigabytes.
const (
	MaxNoteDuration   = 1 << 10
	MaxMelodyDuration = 1 << 18
)

// Validate checks pitch and duration ranges: pitch 0-127, every duration 1
// to MaxNoteDuration, and the total at most MaxMelodyDuration.
func (m Melody) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("music: empty melody")
	}
	total := 0
	for i, n := range m {
		if n.Pitch < 0 || n.Pitch > 127 {
			return fmt.Errorf("music: note %d pitch %d out of MIDI range", i, n.Pitch)
		}
		if n.Duration < 1 || n.Duration > MaxNoteDuration {
			return fmt.Errorf("music: note %d has duration %d, want 1 to %d", i, n.Duration, MaxNoteDuration)
		}
		if total += n.Duration; total > MaxMelodyDuration {
			return fmt.Errorf("music: melody longer than %d ticks", MaxMelodyDuration)
		}
	}
	return nil
}

// NumNotes returns the number of notes.
func (m Melody) NumNotes() int { return len(m) }

// TotalDuration returns the sum of note durations in ticks.
func (m Melody) TotalDuration() int {
	var d int
	for _, n := range m {
		d += n.Duration
	}
	return d
}

// TimeSeries renders the melody as a pitch time series: pitch N1 repeated
// d1 times, then N2 repeated d2 times, and so on (Section 3.2).
func (m Melody) TimeSeries() ts.Series {
	out := make(ts.Series, 0, m.TotalDuration())
	for _, n := range m {
		for i := 0; i < n.Duration; i++ {
			out = append(out, float64(n.Pitch))
		}
	}
	return out
}

// Transpose returns the melody shifted by semitones (clamped to MIDI range).
func (m Melody) Transpose(semitones int) Melody {
	out := make(Melody, len(m))
	for i, n := range m {
		p := n.Pitch + semitones
		if p < 0 {
			p = 0
		}
		if p > 127 {
			p = 127
		}
		out[i] = Note{Pitch: p, Duration: n.Duration}
	}
	return out
}

// ScaleTempo returns the melody with every duration multiplied by factor
// (durations are rounded and kept >= 1). factor must be > 0.
func (m Melody) ScaleTempo(factor float64) Melody {
	if factor <= 0 {
		panic("music: non-positive tempo factor")
	}
	out := make(Melody, len(m))
	for i, n := range m {
		d := int(float64(n.Duration)*factor + 0.5)
		if d < 1 {
			d = 1
		}
		out[i] = Note{Pitch: n.Pitch, Duration: d}
	}
	return out
}

// Slice returns the sub-melody of notes [from, to).
func (m Melody) Slice(from, to int) Melody {
	out := make(Melody, to-from)
	copy(out, m[from:to])
	return out
}

// String renders a compact human-readable form like "C4:2 D4:1 ...".
func (m Melody) String() string {
	var b strings.Builder
	for i, n := range m {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", PitchName(n.Pitch), n.Duration)
	}
	return b.String()
}

var pitchNames = [12]string{"C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"}

// PitchName returns the note name of a MIDI pitch, e.g. 60 -> "C4".
func PitchName(pitch int) string {
	octave := pitch/12 - 1
	return fmt.Sprintf("%s%d", pitchNames[((pitch%12)+12)%12], octave)
}

// SegmentPhrases cuts a melody into phrases of between minNotes and
// maxNotes notes, preferring boundaries after long notes (phrase endings
// tend to be held). This reproduces the paper's whole-sequence-matching
// design: "we segment each melody into several pieces based on the musical
// information, because most people will hum melodic sections."
func SegmentPhrases(m Melody, minNotes, maxNotes int) []Melody {
	if minNotes < 1 || maxNotes < minNotes {
		panic(fmt.Sprintf("music: invalid phrase bounds [%d,%d]", minNotes, maxNotes))
	}
	var phrases []Melody
	start := 0
	for start < len(m) {
		remaining := len(m) - start
		if remaining <= maxNotes {
			// Absorb a short tail into the previous phrase when it
			// cannot stand alone.
			if remaining < minNotes && len(phrases) > 0 {
				last := phrases[len(phrases)-1]
				phrases[len(phrases)-1] = append(last, m[start:]...)
			} else {
				phrases = append(phrases, m.Slice(start, len(m)))
			}
			break
		}
		// Choose the boundary with the longest note ending within the
		// allowed window [start+minNotes, start+maxNotes].
		bestEnd := start + maxNotes
		bestDur := -1
		for end := start + minNotes; end <= start+maxNotes; end++ {
			if d := m[end-1].Duration; d > bestDur {
				bestDur = d
				bestEnd = end
			}
		}
		phrases = append(phrases, m.Slice(start, bestEnd))
		start = bestEnd
	}
	return phrases
}
