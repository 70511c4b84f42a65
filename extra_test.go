package warping_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"warping"
)

func TestPublicAPIGridIndex(t *testing.T) {
	tr := warping.NewPAATransform(64, 8)
	gr := warping.NewGridIndex(tr, 30)
	rt := warping.NewIndex(tr)
	r := rand.New(rand.NewSource(92))
	for i := 0; i < 200; i++ {
		s := warping.Normalize(randomWalk(r, 80), 64)
		if err := gr.Add(int64(i), s); err != nil {
			t.Fatal(err)
		}
		if err := rt.Add(int64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	q := warping.Normalize(randomWalk(r, 90), 64)
	a, _ := gr.RangeQuery(q, 6, 0.1)
	b, _ := rt.RangeQuery(q, 6, 0.1)
	if len(a) != len(b) {
		t.Fatalf("grid %d vs rtree %d matches", len(a), len(b))
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	sys, err := warping.BuildQBH(warping.BuiltinSongs(), warping.QBHOptions{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warping.SaveQBH(sys, &buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := warping.LoadQBH(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.NumSongs() != sys.NumSongs() {
		t.Errorf("songs %d vs %d", sys2.NumSongs(), sys.NumSongs())
	}
}

func TestPublicAPIWAVPipeline(t *testing.T) {
	// A hum exported to WAV, re-loaded, pitch-tracked and searched must
	// still retrieve its song: the complete microphone workflow.
	songs := warping.BuiltinSongs()
	sys, err := warping.BuildQBH(songs, warping.QBHOptions{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(94))
	audio := warping.HumAudio(warping.GoodSinger(), songs[2].Melody, r)
	var buf bytes.Buffer
	if err := warping.EncodeWAV(&buf, audio, warping.DefaultSampleRate); err != nil {
		t.Fatal(err)
	}
	samples, rate, err := warping.DecodeWAV(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	query := warping.StripSilence(warping.TrackPitch(samples, rate))
	if len(query) == 0 {
		t.Fatal("no voiced frames")
	}
	matches, _ := sys.Query(query, 1, 0.1)
	if len(matches) == 0 || matches[0].SongID != songs[2].ID {
		t.Fatalf("WAV pipeline retrieval failed: %+v", matches)
	}
}

func TestPublicAPINormalizedDTW(t *testing.T) {
	x := warping.NewSeries(1, 1, 2, 2, 3, 3, 3, 3)
	y := x.Upsample(3).Shift(10)
	if d := warping.NormalizedDTW(x, y, 48, 0.1); math.Abs(d) > 1e-9 {
		t.Errorf("normalized DTW of shifted/scaled copy = %v", d)
	}
}
