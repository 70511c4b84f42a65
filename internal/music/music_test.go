package music

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoteValidation(t *testing.T) {
	longest := make(Melody, MaxMelodyDuration/MaxNoteDuration)
	for i := range longest {
		longest[i] = Note{Pitch: 60, Duration: MaxNoteDuration}
	}
	for _, m := range []Melody{{{Pitch: 60, Duration: 4}}, longest} {
		if err := m.Validate(); err != nil {
			t.Errorf("valid melody rejected: %v", err)
		}
	}
	cases := []Melody{
		{},
		{{Pitch: -1, Duration: 4}},
		{{Pitch: 128, Duration: 4}},
		{{Pitch: 60, Duration: 0}},
		{{Pitch: 60, Duration: MaxNoteDuration + 1}},
		{{Pitch: 60, Duration: 1 << 30}},
		{{Pitch: 60, Duration: 1 << 62}, {Pitch: 60, Duration: 1 << 62}},
		append(longest, Note{Pitch: 60, Duration: 1}),
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid melody accepted", i)
		}
	}
}

func TestTimeSeriesRendering(t *testing.T) {
	m := Melody{{Pitch: 60, Duration: 2}, {Pitch: 62, Duration: 3}}
	s := m.TimeSeries()
	want := []float64{60, 60, 62, 62, 62}
	if len(s) != len(want) {
		t.Fatalf("len = %d", len(s))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s[%d] = %v", i, s[i])
		}
	}
	if m.TotalDuration() != 5 || m.NumNotes() != 2 {
		t.Error("duration/notes wrong")
	}
}

func TestTranspose(t *testing.T) {
	m := Melody{{Pitch: 60, Duration: 1}, {Pitch: 127, Duration: 1}}
	up := m.Transpose(2)
	if up[0].Pitch != 62 || up[1].Pitch != 127 {
		t.Errorf("Transpose = %v", up)
	}
	down := m.Transpose(-100)
	if down[0].Pitch != 0 {
		t.Errorf("clamp failed: %v", down)
	}
}

func TestScaleTempo(t *testing.T) {
	m := Melody{{Pitch: 60, Duration: 4}, {Pitch: 62, Duration: 1}}
	double := m.ScaleTempo(2)
	if double[0].Duration != 8 || double[1].Duration != 2 {
		t.Errorf("double = %v", double)
	}
	half := m.ScaleTempo(0.25)
	if half[0].Duration != 1 || half[1].Duration != 1 {
		t.Errorf("durations must stay >= 1: %v", half)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for factor 0")
		}
	}()
	m.ScaleTempo(0)
}

func TestPitchName(t *testing.T) {
	cases := map[int]string{60: "C4", 69: "A4", 61: "C#4", 0: "C-1", 127: "G9"}
	for p, want := range cases {
		if got := PitchName(p); got != want {
			t.Errorf("PitchName(%d) = %q, want %q", p, got, want)
		}
	}
}

func TestMelodyString(t *testing.T) {
	m := Melody{{Pitch: 60, Duration: 2}, {Pitch: 62, Duration: 4}}
	if got := m.String(); got != "C4:2 D4:4" {
		t.Errorf("String = %q", got)
	}
}

func TestSegmentPhrasesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := GenerateMelody(r, 200)
	phrases := SegmentPhrases(m, 15, 30)
	total := 0
	for i, p := range phrases {
		total += len(p)
		// All but possibly the last must be within bounds; the last may
		// absorb a short tail (up to maxNotes + minNotes - 1 notes).
		if len(p) < 15 && i != len(phrases)-1 {
			t.Errorf("phrase %d has %d notes", i, len(p))
		}
		if len(p) > 30+15-1 {
			t.Errorf("phrase %d has %d notes", i, len(p))
		}
	}
	if total != 200 {
		t.Errorf("phrases cover %d notes, want 200", total)
	}
}

func TestSegmentPhrasesPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := GenerateMelody(r, 100)
	phrases := SegmentPhrases(m, 10, 20)
	var rebuilt Melody
	for _, p := range phrases {
		rebuilt = append(rebuilt, p...)
	}
	if len(rebuilt) != len(m) {
		t.Fatalf("rebuilt %d notes", len(rebuilt))
	}
	for i := range m {
		if rebuilt[i] != m[i] {
			t.Fatalf("note %d differs", i)
		}
	}
}

func TestSegmentShortMelody(t *testing.T) {
	m := Melody{{60, 4}, {62, 4}}
	phrases := SegmentPhrases(m, 5, 10)
	if len(phrases) != 1 || len(phrases[0]) != 2 {
		t.Errorf("phrases = %v", phrases)
	}
}

func TestGenerateMelodyProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		m := GenerateMelody(r, n)
		if len(m) != n {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateMelodyVocalRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := GenerateMelody(r, 60)
		for i, n := range m {
			if n.Pitch < 30 || n.Pitch > 90 {
				t.Fatalf("trial %d note %d pitch %d outside plausible range", trial, i, n.Pitch)
			}
		}
	}
}

func TestGenerateSongsDeterministic(t *testing.T) {
	a := GenerateSongs(5, 10, 50, 80)
	b := GenerateSongs(5, 10, 50, 80)
	if len(a) != 10 {
		t.Fatalf("count = %d", len(a))
	}
	for i := range a {
		if a[i].Title != b[i].Title || len(a[i].Melody) != len(b[i].Melody) {
			t.Fatal("songs not reproducible")
		}
		for j := range a[i].Melody {
			if a[i].Melody[j] != b[i].Melody[j] {
				t.Fatal("melody differs between runs")
			}
		}
		if n := len(a[i].Melody); n < 50 || n > 80 {
			t.Errorf("song %d has %d notes", i, n)
		}
	}
}

func TestBuiltinSongsValid(t *testing.T) {
	songs := BuiltinSongs()
	if len(songs) < 5 {
		t.Fatalf("only %d builtin songs", len(songs))
	}
	for _, s := range songs {
		if err := s.Melody.Validate(); err != nil {
			t.Errorf("%s: %v", s.Title, err)
		}
		if s.Melody.NumNotes() < 10 {
			t.Errorf("%s: suspiciously short (%d notes)", s.Title, s.Melody.NumNotes())
		}
	}
}

func TestOdeToJoyStartsOnE(t *testing.T) {
	m := OdeToJoy()
	if m[0].Pitch != 64 || m[1].Pitch != 64 || m[2].Pitch != 65 {
		t.Error("Ode to Joy opening wrong")
	}
}

func TestSlice(t *testing.T) {
	m := Melody{{60, 1}, {62, 1}, {64, 1}}
	s := m.Slice(1, 3)
	if len(s) != 2 || s[0].Pitch != 62 {
		t.Errorf("Slice = %v", s)
	}
	s[0].Pitch = 0
	if m[1].Pitch != 62 {
		t.Error("Slice aliases melody")
	}
}
