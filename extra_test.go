package warping_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"warping"
)

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
