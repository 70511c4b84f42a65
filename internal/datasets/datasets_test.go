package datasets

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"warping/internal/ts"
)

func TestAllHas24InPaperOrder(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("got %d datasets, want 24", len(all))
	}
	for i, d := range all {
		if d.ID != i+1 {
			t.Errorf("dataset %q has ID %d at position %d", d.Name, d.ID, i)
		}
		if d.Name == "" || d.Gen == nil {
			t.Errorf("dataset %d incomplete", i)
		}
	}
	if all[23].Name != "Random walk" {
		t.Errorf("dataset 24 = %q, want Random walk", all[23].Name)
	}
}

func TestGeneratorsProduceFiniteValues(t *testing.T) {
	for _, d := range All() {
		r := rand.New(rand.NewSource(42))
		s := d.Gen(r, 256)
		if len(s) != 256 {
			t.Errorf("%s: length %d", d.Name, len(s))
			continue
		}
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite value at %d", d.Name, i)
				break
			}
		}
		if s.Std() == 0 {
			t.Errorf("%s: degenerate constant series", d.Name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, d := range All() {
		a := d.Gen(rand.New(rand.NewSource(7)), 128)
		b := d.Gen(rand.New(rand.NewSource(7)), 128)
		if !slices.Equal(a, b) {
			t.Errorf("%s: not deterministic for fixed seed", d.Name)
		}
		c := d.Gen(rand.New(rand.NewSource(8)), 128)
		if slices.Equal(a, c) {
			t.Errorf("%s: identical output for different seeds", d.Name)
		}
	}
}

func TestSampleProtocol(t *testing.T) {
	sample := Sample(RandomWalk, 50, 256, 1)
	if len(sample) != 50 {
		t.Fatalf("got %d series", len(sample))
	}
	for i, s := range sample {
		if len(s) != 256 {
			t.Fatalf("series %d length %d", i, len(s))
		}
		if math.Abs(s.Mean()) > 1e-9 {
			t.Fatalf("series %d not mean-subtracted: %v", i, s.Mean())
		}
	}
	// Series within a sample must differ.
	if slices.Equal(sample[0], sample[1]) {
		t.Error("sample series identical")
	}
	// Same seed reproduces the sample.
	again := Sample(RandomWalk, 50, 256, 1)
	for i := range sample {
		if !slices.Equal(sample[i], again[i]) {
			t.Fatal("Sample not reproducible")
		}
	}
}

func TestFamiliesAreDistinguishable(t *testing.T) {
	// Sanity: smooth families should have much lower first-difference
	// energy than noisy ones — guards against generators collapsing into
	// the same white-noise shape.
	roughness := func(g Generator) float64 {
		s := Sample(g, 10, 256, 3)
		var num, den float64
		for _, x := range s {
			for i := 1; i < len(x); i++ {
				d := x[i] - x[i-1]
				num += d * d
			}
			den += ts.SquaredDist(x, ts.Constant(len(x), 0))
		}
		return num / den
	}
	if roughness(SpotExrates) >= roughness(EEG) {
		t.Error("SpotExrates should be smoother than EEG")
	}
	if roughness(Tide) >= roughness(Burst) {
		t.Error("Tide should be smoother than Burst")
	}
}
