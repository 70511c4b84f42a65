package hum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"warping/internal/dtw"
	"warping/internal/music"
	"warping/internal/ts"
)

func TestPerfectSingerRendersExactContour(t *testing.T) {
	m := music.Melody{{Pitch: 60, Duration: 2}, {Pitch: 64, Duration: 1}}
	s := PerfectSinger()
	r := rand.New(rand.NewSource(1))
	got := s.RenderPitch(m, r)
	want := 2*FramesPerTick + 1*FramesPerTick
	if len(got) != want {
		t.Fatalf("frames = %d, want %d", len(got), want)
	}
	for i := 0; i < 2*FramesPerTick; i++ {
		if got[i] != 60 {
			t.Fatalf("frame %d = %v", i, got[i])
		}
	}
	for i := 2 * FramesPerTick; i < want; i++ {
		if got[i] != 64 {
			t.Fatalf("frame %d = %v", i, got[i])
		}
	}
}

func TestRenderPitchDeterministic(t *testing.T) {
	m := music.TwinkleTwinkle()
	s := PoorSinger()
	a := s.RenderPitch(m, rand.New(rand.NewSource(5)))
	b := s.RenderPitch(m, rand.New(rand.NewSource(5)))
	if !slices.Equal(a, b) {
		t.Error("render not deterministic for fixed seed")
	}
	c := s.RenderPitch(m, rand.New(rand.NewSource(6)))
	if slices.Equal(a, c) {
		t.Error("different seeds produced identical performances")
	}
}

func TestGoodSingerStaysNearMelody(t *testing.T) {
	m := music.OdeToJoy()
	s := GoodSinger()
	r := rand.New(rand.NewSource(2))
	contour := StripSilence(s.RenderPitch(m, r))
	// After removing the global shift, the contour should stay within a
	// semitone of the melody's normal form under DTW.
	ref := m.TimeSeries()
	const norm = 256
	d := dtw.NormalizedDistance(contour, ref, norm, 0.1)
	// Per-sample RMS deviation below ~1 semitone.
	if d/math.Sqrt(norm) > 1.0 {
		t.Errorf("good singer too far from melody: per-sample %v", d/math.Sqrt(norm))
	}
}

func TestPoorSingerWorseThanGood(t *testing.T) {
	m := music.AmazingGrace()
	ref := m.TimeSeries()
	const norm = 256
	avg := func(s Singer, seed int64) float64 {
		r := rand.New(rand.NewSource(seed))
		var sum float64
		for i := 0; i < 10; i++ {
			c := StripSilence(s.RenderPitch(m, r))
			sum += dtw.NormalizedDistance(c, ref, norm, 0.1)
		}
		return sum / 10
	}
	good := avg(GoodSinger(), 3)
	poor := avg(PoorSinger(), 3)
	if poor <= good {
		t.Errorf("poor singer (%v) not worse than good (%v)", poor, good)
	}
}

func TestTempoScalingBounds(t *testing.T) {
	m := music.Melody{{Pitch: 60, Duration: 8}}
	s := Singer{TempoMin: 0.5, TempoMax: 2}
	r := rand.New(rand.NewSource(4))
	nominal := 8 * FramesPerTick
	for i := 0; i < 50; i++ {
		got := len(s.RenderPitch(m, r))
		// Tempo factor 2 halves duration; 0.5 doubles it.
		if got < nominal/2-2 || got > nominal*2+2 {
			t.Fatalf("frames %d outside [%d, %d]", got, nominal/2, nominal*2)
		}
	}
}

func TestBreathsInsertSilence(t *testing.T) {
	m := music.GenerateMelody(rand.New(rand.NewSource(7)), 40)
	s := Singer{TempoMin: 1, TempoMax: 1, BreathProb: 1} // breathe before every note
	contour := s.RenderPitch(m, rand.New(rand.NewSource(8)))
	zeros := 0
	for _, v := range contour {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Error("no breaths inserted despite BreathProb 1")
	}
	if got := StripSilence(contour); len(got) != len(contour)-zeros {
		t.Error("StripSilence wrong")
	}
}

func TestHumFullPipeline(t *testing.T) {
	m := music.FrereJacques()
	s := GoodSinger()
	r := rand.New(rand.NewSource(9))
	q := s.Hum(m, r)
	if len(q) < 50 {
		t.Fatalf("hum produced only %d voiced frames", len(q))
	}
	// The tracked pitch series must be recognizably close to the melody:
	// compare normal forms under DTW.
	ref := m.TimeSeries()
	const norm = 256
	d := dtw.NormalizedDistance(q, ref, norm, 0.1)
	if d/math.Sqrt(norm) > 1.5 {
		t.Errorf("tracked hum too far from melody: %v per sample", d/math.Sqrt(norm))
	}
	// And closer to its own melody than to a very different one.
	other := ts.Series(music.Greensleeves().TimeSeries())
	dOther := dtw.NormalizedDistance(q, other, norm, 0.1)
	if d >= dOther {
		t.Errorf("hum closer to wrong melody: own %v vs other %v", d, dOther)
	}
}

func TestRenderPanicsOnInvalidMelody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GoodSinger().RenderPitch(music.Melody{}, rand.New(rand.NewSource(1)))
}

func TestDropNotes(t *testing.T) {
	m := music.GenerateMelody(rand.New(rand.NewSource(20)), 50)
	s := Singer{TempoMin: 1, TempoMax: 1, DropNoteProb: 0.5}
	r := rand.New(rand.NewSource(21))
	contour := s.RenderPitch(m, r)
	full := PerfectSinger().RenderPitch(m, rand.New(rand.NewSource(22)))
	if len(contour) >= len(full) {
		t.Errorf("dropping notes did not shorten: %d vs %d", len(contour), len(full))
	}
	// The first note is never dropped: the contour starts at note 0's pitch.
	if contour[0] != float64(m[0].Pitch) {
		t.Errorf("first frame %v, want %d", contour[0], m[0].Pitch)
	}
}

func TestRepeatNotes(t *testing.T) {
	m := music.Melody{{Pitch: 60, Duration: 4}, {Pitch: 64, Duration: 4}}
	s := Singer{TempoMin: 1, TempoMax: 1, RepeatNoteProb: 1}
	contour := s.RenderPitch(m, rand.New(rand.NewSource(23)))
	// Every note doubles (plus 2-frame stutter gaps).
	want := 2*(4+4)*FramesPerTick + 2*2
	if len(contour) != want {
		t.Errorf("frames = %d, want %d", len(contour), want)
	}
	zeros := 0
	for _, v := range contour {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 4 {
		t.Errorf("stutter gaps = %d frames, want 4", zeros)
	}
}
