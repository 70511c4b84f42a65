package experiments

import (
	"strings"
	"testing"
)

func smallQualityConfig() QualityConfig {
	return QualityConfig{Songs: 10, NotesPerSong: 120, Queries: 6, Seed: 11}
}

func TestBuckets(t *testing.T) {
	cases := map[int]RankBucket{
		1: Rank1, 2: Rank2to3, 3: Rank2to3, 4: Rank4to5, 5: Rank4to5,
		6: Rank6to10, 10: Rank6to10, 11: RankOver10, 500: RankOver10,
		0: RankOver10, // not found counts as >10
	}
	for rank, want := range cases {
		if got := BucketOf(rank); got != want {
			t.Errorf("BucketOf(%d) = %v, want %v", rank, got, want)
		}
	}
	var h Histogram
	h.Add(1)
	h.Add(2)
	h.Add(100)
	if h.Total() != 3 || h[Rank1] != 1 || h[Rank2to3] != 1 || h[RankOver10] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestBucketStrings(t *testing.T) {
	want := []string{"1", "2-3", "4-5", "6-10", "10-"}
	for b := RankBucket(0); b < numBuckets; b++ {
		if b.String() != want[b] {
			t.Errorf("bucket %d = %q", b, b.String())
		}
	}
}

func TestRunTable2Small(t *testing.T) {
	res, err := RunTable2(smallQualityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeSeries.Total() != 6 || res.Contour.Total() != 6 {
		t.Fatalf("histograms incomplete: %+v", res)
	}
	// The paper's claim: the time series approach beats the contour
	// approach. With good singers on a small database the time-series
	// rank-1 count should be at least the contour's.
	if res.TimeSeries[Rank1] < res.Contour[Rank1] {
		t.Errorf("time series rank-1 (%d) below contour (%d)",
			res.TimeSeries[Rank1], res.Contour[Rank1])
	}
	out := res.Render()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Contour") {
		t.Errorf("render missing labels:\n%s", out)
	}
}

func TestRunTable3Small(t *testing.T) {
	res, err := RunTable3(smallQualityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 3 {
		t.Fatalf("widths: %v", res.Widths)
	}
	for i, h := range res.Histograms {
		if h.Total() != 6 {
			t.Errorf("width %v: total %d", res.Widths[i], h.Total())
		}
	}
	out := res.Render()
	if !strings.Contains(out, "delta = 0.05") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRunFigure6Small(t *testing.T) {
	cfg := Figure6Config{SeriesLen: 64, Dim: 4, SeriesPerSet: 6, WarpingWidth: 0.1, Seed: 12}
	res := RunFigure6(cfg)
	if len(res.Datasets) != 24 {
		t.Fatalf("datasets = %d", len(res.Datasets))
	}
	for i, name := range res.Datasets {
		// Sanity: all tightness values in [0,1]; LB >= New_PAA >= Keogh_PAA.
		for _, v := range []float64{res.LB[i], res.NewPAA[i], res.Keogh[i]} {
			if v < 0 || v > 1.0001 {
				t.Errorf("%s: tightness %v out of range", name, v)
			}
		}
		if res.LB[i] < res.NewPAA[i]-1e-9 {
			t.Errorf("%s: LB (%v) below New_PAA (%v)", name, res.LB[i], res.NewPAA[i])
		}
		if res.NewPAA[i] < res.Keogh[i]-1e-9 {
			t.Errorf("%s: New_PAA (%v) below Keogh_PAA (%v)", name, res.NewPAA[i], res.Keogh[i])
		}
	}
	// Headline claim: New_PAA meaningfully tighter than Keogh_PAA on
	// average (paper: ~2x).
	if r := res.MeanRatio(); r < 1.2 {
		t.Errorf("mean New/Keogh ratio only %v", r)
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestRunFigure7Small(t *testing.T) {
	cfg := Figure7Config{SeriesLen: 64, Dim: 4, Widths: []float64{0, 0.05, 0.1}, Pairs: 30, Seed: 13}
	res := RunFigure7(cfg)
	if len(res.T) != 3 || len(res.Names) != 5 {
		t.Fatalf("shape: %d widths x %d transforms", len(res.T), len(res.Names))
	}
	idx := map[string]int{}
	for i, n := range res.Names {
		idx[n] = i
	}
	// At width 0, SVD must be the tightest reduced transform (it is the
	// optimal linear reduction for Euclidean distance).
	w0 := res.T[0]
	svd := w0[idx["SVD"]]
	for _, name := range []string{"New_PAA", "Keogh_PAA", "DFT"} {
		if svd < w0[idx[name]]-1e-9 {
			t.Errorf("at width 0, SVD (%v) below %s (%v)", svd, name, w0[idx[name]])
		}
	}
	// LB is always the tightest overall.
	for wi := range res.T {
		lb := res.T[wi][idx["LB"]]
		for ti, v := range res.T[wi] {
			if v > lb+1e-9 {
				t.Errorf("width %d: %s (%v) exceeds LB (%v)", wi, res.Names[ti], v, lb)
			}
		}
	}
	// New_PAA >= Keogh_PAA at every width.
	for wi := range res.T {
		if res.T[wi][idx["New_PAA"]] < res.T[wi][idx["Keogh_PAA"]]-1e-9 {
			t.Errorf("width %d: New_PAA below Keogh_PAA", wi)
		}
	}
	// Tightness decreases with width for every transform.
	for ti := range res.Names {
		if res.T[len(res.T)-1][ti] > res.T[0][ti]+1e-9 {
			t.Errorf("%s: tightness increased with width", res.Names[ti])
		}
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

func smallScalabilityConfig(seed int64) ScalabilityConfig {
	return ScalabilityConfig{
		DBSize: 300, SeriesLen: 64, Dim: 8,
		Widths: []float64{0.05, 0.1, 0.2}, Thresholds: []float64{0.2, 0.8},
		Queries: 5, Seed: seed,
	}
}

func checkScalability(t *testing.T, res *ScalabilityResult) {
	t.Helper()
	for ti := range res.Config.Thresholds {
		for wi := range res.Config.Widths {
			keogh := res.Candidates[ti][wi][0]
			newPAA := res.Candidates[ti][wi][1]
			if newPAA > keogh+1e-9 {
				t.Errorf("threshold %v width %v: New_PAA candidates (%v) exceed Keogh (%v)",
					res.Config.Thresholds[ti], res.Config.Widths[wi], newPAA, keogh)
			}
			if res.PageAccesses[ti][wi][0] <= 0 || res.PageAccesses[ti][wi][1] <= 0 {
				t.Errorf("zero page accesses recorded")
			}
		}
		// Candidates grow with warping width (for Keogh at least, whose
		// bound loosens fastest).
		first := res.Candidates[ti][0][0]
		last := res.Candidates[ti][len(res.Config.Widths)-1][0]
		if last < first {
			t.Errorf("threshold %v: Keogh candidates shrank with width (%v -> %v)",
				res.Config.Thresholds[ti], first, last)
		}
	}
	// The larger threshold retrieves at least as many candidates.
	for wi := range res.Config.Widths {
		if res.Candidates[1][wi][0] < res.Candidates[0][wi][0] {
			t.Errorf("width %v: larger threshold retrieved fewer candidates", res.Config.Widths[wi])
		}
	}
	if !strings.Contains(res.Render(), "threshold=0.2") {
		t.Error("render missing threshold")
	}
}

func TestRunFigure8Small(t *testing.T) {
	res, err := RunFigure8(smallScalabilityConfig(14))
	if err != nil {
		t.Fatal(err)
	}
	checkScalability(t, res)
}

func TestRunFigure9Small(t *testing.T) {
	res, err := RunFigure9(smallScalabilityConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	checkScalability(t, res)
}

func TestRunFigure10Small(t *testing.T) {
	res, err := RunFigure10(smallScalabilityConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	checkScalability(t, res)
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable("T", []string{"A", "LongHeader"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header and separator widths differ:\n%s", out)
	}
}

func TestRunStructuresSmall(t *testing.T) {
	cfg := StructuresConfig{
		DBSize: 400, SeriesLen: 64, Dim: 8,
		Epsilon: 0.3, Width: 0.1, Queries: 5, Seed: 31,
	}
	res, err := RunStructures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]StructureRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Brute force computes DTW for everything; the indexes for far less.
	if byName["Brute force"].ExactDTW != float64(cfg.DBSize) {
		t.Errorf("brute force exact DTW = %v", byName["Brute force"].ExactDTW)
	}
	if byName["R*-tree"].ExactDTW >= byName["Brute force"].ExactDTW {
		t.Error("R*-tree did not prune")
	}
	// All match counts equal (exactness) is enforced inside RunStructures.
	if !strings.Contains(res.Render(), "R*-tree") {
		t.Error("render missing structure name")
	}
}

func TestPlots(t *testing.T) {
	f7 := RunFigure7(Figure7Config{SeriesLen: 64, Dim: 4, Widths: []float64{0, 0.1}, Pairs: 5, Seed: 51})
	if out := f7.Plot(); !strings.Contains(out, "Figure 7") || !strings.Contains(out, "New_PAA") {
		t.Errorf("fig7 plot:\n%s", out)
	}
	f6 := RunFigure6(Figure6Config{SeriesLen: 64, Dim: 4, SeriesPerSet: 3, WarpingWidth: 0.1, Seed: 52})
	if out := f6.Plot(); !strings.Contains(out, "Keogh_PAA") {
		t.Errorf("fig6 plot:\n%s", out)
	}
	f8, err := RunFigure8(smallScalabilityConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	if out := f8.Plot(); !strings.Contains(out, "candidates vs width") {
		t.Errorf("fig8 plot:\n%s", out)
	}
}

func TestIllustrations(t *testing.T) {
	cases := map[string]func() string{
		"Figure 1": RunFigure1,
		"Figure 2": RunFigure2,
		"Figure 3": RunFigure3,
		"Figure 4": RunFigure4,
		"Figure 5": RunFigure5,
	}
	for title, fn := range cases {
		out := fn()
		if !strings.Contains(out, title) {
			t.Errorf("%s: missing title in output", title)
		}
		if len(out) < 200 {
			t.Errorf("%s: suspiciously short output (%d bytes)", title, len(out))
		}
	}
	// Figure 4 must show a banded path.
	if out := RunFigure4(); !strings.Contains(out, "*") || !strings.Contains(out, ".") {
		t.Error("Figure 4 missing path or band")
	}
}
