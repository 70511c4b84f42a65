package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"warping/internal/index"
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
		// The point of the LB_KeoghEC and LB_Improved stages: strictly
		// fewer exact DTW computations than the LB_Keogh-only baseline on
		// this corpus.
		if m.s.LBSurvivors >= m.s.KeoghSurvivors {
			t.Errorf("%s: LB_KeoghEC and LB_Improved pruned nothing (%d survivors of %d)",
				m.name, m.s.LBSurvivors, m.s.KeoghSurvivors)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Pruning power") || !strings.Contains(out, "scan-range") {
		t.Errorf("render missing labels:\n%s", out)
	}
}

// TestBaselinesUnchangedWithoutCoarseStage: the scan baseline ran a 4-dim
// coarse box stage ahead of LB_Keogh until PR 28. A box distance
// lower-bounds LB_Keogh (Theorem 1), so what it pruned LB_Keogh prunes at
// the same threshold: on the experiment's corpus the answers (ids and
// Float64bits of the distances, digested) and every counter past the removed
// stage are the ones recorded at PR 28's parent, where the scan's coarse
// survivors were 2574 (range) and 2912 (kNN) of these 4800 candidates. (The
// digest covers scan range + scan kNN, recomputed with PR 29's parent code
// once the grid half of this test left with the grid file.) The scan's
// New_PAA box stage is gone as well, on the same argument, and it runs the
// plain LinearScan with every number below unchanged. The LB_KeoghEC stage,
// added between LB_Keogh and LB_Improved, is a further valid bound: it
// leaves the answers and the counters up to LB_Keogh as they were, and the
// LB_Improved and exact-DTW survivors fell from 486 to 427 (range) and from
// 877 to 728 (kNN); the EC column is its own.
func TestBaselinesUnchangedWithoutCoarseStage(t *testing.T) {
	cfg := smallPruningConfig()
	entries, queries := pruningCorpus(cfg)
	scan := index.NewLinearScan(cfg.SeriesLen, true)
	for _, e := range entries {
		if err := scan.Add(e.ID, e.Series); err != nil {
			t.Fatal(err)
		}
	}
	radius := cfg.Epsilon * math.Sqrt(float64(cfg.SeriesLen))
	h := fnv.New64a()
	var scanRange, scanKNN StageCounts
	record := func(s *StageCounts, ms []index.Match, st index.QueryStats) {
		for _, m := range ms {
			fmt.Fprintf(h, "%d:%x,", m.ID, math.Float64bits(m.Dist))
		}
		fmt.Fprint(h, ";")
		s.add(st)
		if st.CoarseSurvivors != st.Candidates {
			t.Errorf("CoarseSurvivors %d is no alias of Candidates %d", st.CoarseSurvivors, st.Candidates)
		}
	}
	for _, q := range queries {
		ms, st := scan.RangeQuery(q, radius, cfg.Delta)
		record(&scanRange, ms, st)
		ms, st = scan.KNN(q, cfg.TopK, cfg.Delta)
		record(&scanKNN, ms, st)
	}
	for _, m := range []struct {
		name      string
		got, want StageCounts
	}{
		{"scan-range", scanRange, StageCounts{4800, 957, 542, 427, 427}},
		{"scan-knn", scanKNN, StageCounts{4800, 1465, 847, 728, 728}},
	} {
		if m.got != m.want {
			t.Errorf("%s: candidates/keogh/ec/lb/dtw = %+v, want %+v", m.name, m.got, m.want)
		}
	}
	if got, want := h.Sum64(), uint64(0xfef5acb7828ff8a3); got != want {
		t.Errorf("answers digest %#x, the parent's %#x", got, want)
	}
}

// BenchmarkPruningPower records the cascade's per-stage survivor counts as
// benchmark metrics (per op = per batch of Queries range + kNN queries),
// so the CI pruning-power smoke step can assert the survivor chain. The
// exact_dtw_keogh_only metric is the counterfactual baseline: the exact
// DTW count a Keogh-only cascade (the verifier before LB_KeoghEC and
// LB_Improved) would have performed on the identical workload. The range
// queries' survivors past LB_Keogh are also reported alone, for the index
// (range_*) and the scan (scan_range_*): the tree walk lower-bounds
// LB_Keogh (Theorem 1), so the two must be equal, stage by stage.
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
		total.KeoghSurvivors += s.KeoghSurvivors
		total.ECSurvivors += s.ECSurvivors
		total.LBSurvivors += s.LBSurvivors
		total.ExactDTW += s.ExactDTW
	}
	b.ReportMetric(float64(total.Candidates), "candidates/op")
	b.ReportMetric(float64(total.KeoghSurvivors), "keogh_survivors/op")
	b.ReportMetric(float64(total.ECSurvivors), "ec_survivors/op")
	b.ReportMetric(float64(total.LBSurvivors), "lb_survivors/op")
	b.ReportMetric(float64(total.ExactDTW), "exact_dtw/op")
	b.ReportMetric(float64(total.KeoghSurvivors), "exact_dtw_keogh_only/op")
	for prefix, s := range map[string]StageCounts{"range_": res.Range, "scan_range_": res.ScanRange} {
		b.ReportMetric(float64(s.KeoghSurvivors), prefix+"keogh_survivors/op")
		b.ReportMetric(float64(s.ECSurvivors), prefix+"ec_survivors/op")
		b.ReportMetric(float64(s.LBSurvivors), prefix+"lb_survivors/op")
		b.ReportMetric(float64(s.ExactDTW), prefix+"exact_dtw/op")
	}
}

// Monotone reports whether the survivor chain is non-increasing — the
// soundness invariant every run must satisfy.
func (s StageCounts) Monotone() bool {
	return s.Candidates >= s.KeoghSurvivors &&
		s.KeoghSurvivors >= s.ECSurvivors &&
		s.ECSurvivors >= s.LBSurvivors &&
		s.LBSurvivors >= s.ExactDTW
}
