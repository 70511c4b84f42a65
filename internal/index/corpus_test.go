package index

import (
	"math"
	"math/rand"
	"testing"

	"warping/internal/ts"
)

// sameBits reports whether x and y hold the same values, Float64bits-equal.
func sameBits(x, y ts.Series) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestByteRecordRoundTrip: a series has a byte record only if decoding it
// gives the series back bit for bit, and the corpus stores and reads back
// exactly what it was given in either format. Tunes — the normal forms qbh
// indexes, at every length it can be configured to — always have one.
func TestByteRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, tc := range []struct {
		name  string
		x     ts.Series
		coded bool
	}{
		{"whole semitones", ts.Series{60, 62, 64, 65, 67}, true},
		{"semitones off the grid", ts.Series{-2.5, 0.5, 3.5}, true},
		{"constant", ts.Constant(16, -3.25), true},
		{"range 255", ts.Series{-100, 155}, true},
		{"huge magnitude", ts.Series{1e17, 1e17 + 16, 1e17 + 32}, true},
		{"range 256", ts.Series{-100, 156}, false},
		{"fractional steps", ts.Series{0, 0.1, 0.2}, false},
		{"half a semitone", ts.Series{60, 60.5}, false},
		{"negative zero at the base", ts.Series{math.Copysign(0, -1), 1}, false},
		{"a random walk", randomWalk(r, testN), false},
	} {
		if got := encode(nil, tc.x); got != tc.coded {
			t.Errorf("%s: has a byte record: %v, want %v", tc.name, got, tc.coded)
		}
		rec := make([]byte, recordHeader+len(tc.x))
		if encode(rec, tc.x) {
			back := make(ts.Series, len(tc.x))
			decode(back, rec)
			if !sameBits(back, tc.x) {
				t.Errorf("%s: decoded %v, want %v", tc.name, back, tc.x)
			}
		}
	}
	for _, n := range []int{64, 96, 100, 128, 256} {
		for range 2000 {
			x := tune(r, n)
			if !encode(nil, x) {
				t.Fatalf("n=%d: the tune %v has no byte record", n, x)
			}
		}
	}

	sp := pagedSpace(t, 16)
	for _, fam := range families {
		xs := make([]ts.Series, 200)
		for i := range xs {
			xs[i] = fam.gen(r, testN)
		}
		st := packedCorpus(t, sp, xs...)
		if st.coded != fam.coded {
			t.Errorf("%s: the column holds byte records: %v, want %v", fam.name, st.coded, fam.coded)
		}
		rd := st.reader()
		for slot, x := range xs {
			got, err := rd.series(slot)
			if err != nil || !sameBits(got, x) {
				t.Fatalf("%s: slot %d read back %v, err %v; stored %v", fam.name, slot, got, err, x)
			}
		}
		rd.release()
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
	}
}
