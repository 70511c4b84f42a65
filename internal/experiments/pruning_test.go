package experiments

import (
	"strings"
	"testing"
)

func smallPruningConfig() PruningConfig {
	cfg := DefaultPruningConfig()
	cfg.DBSize = 600
	cfg.Queries = 8
	return cfg
}

func TestPruningPower(t *testing.T) {
	res, err := RunPruningPower(smallPruningConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		s    StageCounts
	}{
		{"rtree-range", res.Range}, {"rtree-knn", res.KNN},
		{"scan-range", res.ScanRange}, {"scan-knn", res.ScanKNN},
	} {
		if m.s.Candidates == 0 {
			t.Fatalf("%s: no candidates; the workload measures nothing", m.name)
		}
		if !m.s.Monotone() {
			t.Errorf("%s: survivor chain not monotone: %+v", m.name, m.s)
		}
		// Unbudgeted queries verify every LB survivor exactly.
		if m.s.ExactDTW != m.s.LBSurvivors {
			t.Errorf("%s: ExactDTW %d != LBSurvivors %d without a budget",
				m.name, m.s.ExactDTW, m.s.LBSurvivors)
		}
		// The point of the LB_Improved stage: strictly fewer exact DTW
		// computations than the LB_Keogh-only baseline on this corpus.
		if m.s.LBSurvivors >= m.s.KeoghSurvivors {
			t.Errorf("%s: LB_Improved pruned nothing (%d survivors of %d)",
				m.name, m.s.LBSurvivors, m.s.KeoghSurvivors)
		}
	}
	// The scan path sees the raw corpus, so the O(4) coarse box must do
	// real work there (on the R-tree path the leaf filter already applied
	// the nested fine box, so its candidates trivially pass the coarse one).
	if res.ScanRange.CoarseSurvivors >= res.ScanRange.Candidates {
		t.Errorf("scan-range: coarse box pruned nothing (%d of %d)",
			res.ScanRange.CoarseSurvivors, res.ScanRange.Candidates)
	}
	out := res.Render()
	if !strings.Contains(out, "Pruning power") || !strings.Contains(out, "scan-range") {
		t.Errorf("render missing labels:\n%s", out)
	}
}

// BenchmarkPruningPower records the cascade's per-stage survivor counts as
// benchmark metrics (per op = per batch of Queries range + kNN queries),
// so the CI pruning-power smoke step can assert the survivor chain. The
// exact_dtw_keogh_only metric is the counterfactual baseline: the exact
// DTW count a Keogh-only cascade (the pre-LB_Improved verifier) would
// have performed on the identical workload.
func BenchmarkPruningPower(b *testing.B) {
	cfg := DefaultPruningConfig()
	var res *PruningResult
	for i := 0; i < b.N; i++ {
		r, err := RunPruningPower(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	total := StageCounts{}
	for _, s := range []StageCounts{res.Range, res.KNN, res.ScanRange, res.ScanKNN} {
		total.Candidates += s.Candidates
		total.CoarseSurvivors += s.CoarseSurvivors
		total.KeoghSurvivors += s.KeoghSurvivors
		total.LBSurvivors += s.LBSurvivors
		total.ExactDTW += s.ExactDTW
	}
	b.ReportMetric(float64(total.Candidates), "candidates/op")
	b.ReportMetric(float64(total.CoarseSurvivors), "coarse_survivors/op")
	b.ReportMetric(float64(total.KeoghSurvivors), "keogh_survivors/op")
	b.ReportMetric(float64(total.LBSurvivors), "lb_survivors/op")
	b.ReportMetric(float64(total.ExactDTW), "exact_dtw/op")
	b.ReportMetric(float64(total.KeoghSurvivors), "exact_dtw_keogh_only/op")
}
