package warping_test

import (
	"fmt"
	"math/rand"

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
