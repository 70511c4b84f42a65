package warping_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"warping"
)

// Indexing and querying a small collection under banded DTW.
func ExampleIndex() {
	tr := warping.NewPAATransform(32, 4)
	ix := warping.NewIndex(tr)

	// Three simple shapes; normal forms make them shift-invariant.
	flat := warping.Normalize(warping.NewSeries(
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 32)
	step := warping.Normalize(warping.NewSeries(
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5), 32)
	ramp := make(warping.Series, 32)
	for i := range ramp {
		ramp[i] = float64(i) / 4
	}
	ramp = warping.Normalize(ramp, 32)

	_ = ix.Add(0, flat)
	_ = ix.Add(1, step)
	_ = ix.Add(2, ramp)

	// A shifted step matches the step at distance ~0.
	query := warping.Normalize(step.Shift(12), 32)
	matches, _ := ix.KNN(query, 1, 0.1)
	fmt.Printf("best id=%d dist=%.1f\n", matches[0].ID, matches[0].Dist)
	// Output: best id=1 dist=0.0
}

// The Theorem 1 lower bound never exceeds the true banded DTW distance.
func ExampleLowerBoundDTW() {
	r := rand.New(rand.NewSource(1))
	x := make(warping.Series, 64)
	q := make(warping.Series, 64)
	for i := range x {
		x[i] = r.NormFloat64()
		q[i] = r.NormFloat64()
	}
	tr := warping.NewPAATransform(64, 8)
	k := warping.BandRadius(64, 0.1)
	lb := warping.LowerBoundDTW(tr, x, q, k)
	exact := warping.DTWBanded(x, q, k)
	fmt.Println(lb <= exact)
	// Output: true
}

// Unconstrained DTW absorbs local timing differences that Euclidean
// distance cannot.
func ExampleDTW() {
	a := warping.NewSeries(1, 2, 3, 3, 4)
	b := warping.NewSeries(1, 2, 2, 3, 4) // the 3 is held late
	fmt.Printf("dtw=%.0f euclid=%.0f\n", warping.DTW(a, b), warping.EuclideanDist(a, b))
	// Output: dtw=0 euclid=1
}

// NormalizedDTW is invariant to transposition and uniform tempo change.
func ExampleNormalizedDTW() {
	melody := warping.NewSeries(60, 60, 62, 62, 64, 64, 62, 62)
	// The same tune, a fifth higher and twice as slow.
	variant := melody.Upsample(2).Shift(7)
	fmt.Printf("%.2f\n", warping.NormalizedDTW(melody, variant, 32, 0.1))
	// Output: 0.00
}

// A melody round-trips exactly through a Standard MIDI File.
func ExampleEncodeMIDI() {
	m := warping.Melody{
		{Pitch: 60, Duration: 4},
		{Pitch: 64, Duration: 4},
		{Pitch: 67, Duration: 8},
	}
	data, _ := warping.EncodeMIDI(m, 500000)
	back, _ := warping.DecodeMIDI(data)
	fmt.Println(back.String())
	// Output: C4:4 E4:4 G4:8
}

// Searching a song database with a simulated hum.
func ExampleBuildQBH() {
	sys, _ := warping.BuildQBH(warping.BuiltinSongs(), warping.QBHOptions{
		PhraseMin: 8, PhraseMax: 20,
	})
	r := rand.New(rand.NewSource(3))
	query := warping.Hum(warping.GoodSinger(), warping.BuiltinSongs()[1].Melody, r)
	matches, _ := sys.Query(query, 1, 0.1)
	fmt.Println(matches[0].Title)
	// Output: Twinkle, Twinkle, Little Star
}

// Pitch-tracking a recording: half a second of silence, then one second of
// A4 (440 Hz) at 8 kHz. StripSilence keeps the voiced 10 ms frames.
func ExampleTrackPitch() {
	const rate = 8000
	samples := make([]float64, rate/2, rate*3/2)
	for i := 0; i < rate; i++ {
		samples = append(samples, 0.5*math.Sin(2*math.Pi*440*float64(i)/rate))
	}
	pitch := warping.TrackPitch(samples, rate)
	voiced := warping.StripSilence(pitch)
	fmt.Printf("%d frames, %d voiced, MIDI pitch %.0f\n", len(pitch), len(voiced), voiced[len(voiced)/2])
	// Output: 150 frames, 102 voiced, MIDI pitch 69
}

func randomWalk(r *rand.Rand, n int) warping.Series {
	s := make(warping.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s
}

// TestPublicAPIIndexPipeline exercises the whole public indexing surface as
// a downstream user would.
func TestPublicAPIIndexPipeline(t *testing.T) {
	const n, dim = 128, 8
	r := rand.New(rand.NewSource(1))

	tr := warping.NewPAATransform(n, dim)
	ix := warping.NewIndex(tr)
	data := make([]warping.Series, 500)
	for i := range data {
		data[i] = warping.Normalize(randomWalk(r, 200+r.Intn(100)), n)
		if err := ix.Add(int64(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Range query around a known series finds it at distance 0.
	matches, stats := ix.RangeQuery(data[42], 5.0, 0.1)
	found := false
	for _, m := range matches {
		if m.ID == 42 && m.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("self not found: %v", matches)
	}
	if stats.PageAccesses == 0 {
		t.Error("no page accesses")
	}

	// kNN agrees with a manual scan.
	q := warping.Normalize(randomWalk(r, 300), n)
	knn, _ := ix.KNN(q, 5, 0.1)
	if len(knn) != 5 {
		t.Fatalf("kNN size %d", len(knn))
	}
	k := warping.BandRadius(n, 0.1)
	bestManual := math.Inf(1)
	for _, s := range data {
		if d := warping.DTWBanded(q, s, k); d < bestManual {
			bestManual = d
		}
	}
	if math.Abs(knn[0].Dist-bestManual) > 1e-9 {
		t.Errorf("kNN best %v, manual %v", knn[0].Dist, bestManual)
	}
}

// TestPublicAPIDistances checks the exported distance functions agree with
// their documented relationships.
func TestPublicAPIDistances(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randomWalk(r, 64)
	y := randomWalk(r, 64)
	if warping.DTW(x, y) > warping.EuclideanDist(x, y)+1e-9 {
		t.Error("DTW exceeds Euclidean")
	}
	if warping.DTWBanded(x, y, 0) != warping.EuclideanDist(x, y) {
		t.Error("band 0 != Euclidean")
	}
	if lb := warping.LowerBoundDTW(warping.NewPAATransform(64, 8), x, y, 5); lb > warping.DTWBanded(x, y, 5)+1e-9 {
		t.Error("feature lower bound exceeds DTW")
	}
}

// TestPublicAPIQBH exercises the query-by-humming surface end to end.
func TestPublicAPIQBH(t *testing.T) {
	songs := warping.BuiltinSongs()
	sys, err := warping.BuildQBH(songs, warping.QBHOptions{PhraseMin: 8, PhraseMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	q := warping.Hum(warping.GoodSinger(), songs[0].Melody, r)
	matches, _ := sys.Query(q, 3, 0.1)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].SongID != songs[0].ID {
		t.Errorf("top match %+v, want song %d", matches[0], songs[0].ID)
	}
}

// TestPublicAPIMIDI round-trips every built-in song through the MIDI facade.
func TestPublicAPIMIDI(t *testing.T) {
	for _, s := range warping.BuiltinSongs() {
		data, err := warping.EncodeMIDI(s.Melody, 500000)
		if err != nil {
			t.Fatal(err)
		}
		back, err := warping.DecodeMIDI(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(s.Melody) {
			t.Fatalf("%s: round trip lost notes: %d vs %d", s.Title, len(back), len(s.Melody))
		}
	}
}

// TestNewSeries checks the trivial constructor copies.
func TestNewSeries(t *testing.T) {
	vals := []float64{1, 2}
	s := warping.NewSeries(vals...)
	vals[0] = 9
	if s[0] != 1 {
		t.Error("NewSeries did not copy")
	}
}

// TestRetrofitEuclideanFacade: the index that serves DTW queries serves
// Euclidean ones too (the paper's retrofit property) as a range query at
// warping width 0, and a query of the wrong length matches nothing instead
// of panicking.
func TestRetrofitEuclideanFacade(t *testing.T) {
	tr := warping.NewPAATransform(64, 8)
	ix := warping.NewIndex(tr)
	r := rand.New(rand.NewSource(8))
	var data []warping.Series
	for i := 0; i < 100; i++ {
		s := warping.Normalize(randomWalk(r, 70), 64)
		data = append(data, s)
		if err := ix.Add(int64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ix.RangeQuery(data[3], 1e-9, 0)
	if len(got) == 0 || got[0].ID != 3 {
		t.Errorf("self not found: %v", got)
	}
	if got, _ := ix.RangeQuery(warping.NewSeries(1, 2), 1, 0); len(got) != 0 {
		t.Errorf("wrong-length Euclidean query matched %v; want none, and no panic", got)
	}
}

func TestPublicAPINormalizedDTW(t *testing.T) {
	x := warping.NewSeries(1, 1, 2, 2, 3, 3, 3, 3)
	y := x.Upsample(3).Shift(10)
	if d := warping.NormalizedDTW(x, y, 48, 0.1); math.Abs(d) > 1e-9 {
		t.Errorf("normalized DTW of shifted/scaled copy = %v", d)
	}
}
