package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"warping/internal/core"
	"warping/internal/datasets"
	"warping/internal/index"
	"warping/internal/ts"
)

// PruningConfig parameterizes the pruning-power measurement of the
// verification cascade (New_PAA box / LB_Keogh → LB_KeoghEC → LB_Improved →
// exact banded DTW). It is not a figure from the paper; it instruments the
// cascade the paper's index relies on, so a regression in any stage's
// tightness shows up as a survivor-count shift.
type PruningConfig struct {
	// DBSize is the number of indexed series.
	DBSize int
	// SeriesLen is the normal-form length (paper: 128).
	SeriesLen int
	// Dim is the reduced dimensionality of the fine transform (paper: 8).
	Dim int
	// Delta is the warping width.
	Delta float64
	// Epsilon scales the range-query radius: radius = Epsilon * sqrt(n),
	// the same normalized-threshold convention as the Figure 8-10 runs.
	Epsilon float64
	// TopK is the kNN query depth.
	TopK int
	// Queries is the number of queries aggregated per mode.
	Queries int
	Seed    int64
}

// DefaultPruningConfig measures the cascade on a random-walk database at
// the paper's dimensions with both range and kNN workloads.
func DefaultPruningConfig() PruningConfig {
	return PruningConfig{
		DBSize: 4000, SeriesLen: 128, Dim: 8,
		Delta: 0.1, Epsilon: 0.5, TopK: 10,
		Queries: 25, Seed: 77,
	}
}

// StageCounts aggregates the cascade's per-stage survivor counters over a
// batch of queries. Soundness makes the chain monotone:
//
//	Candidates >= KeoghSurvivors >= ECSurvivors >= LBSurvivors >= ExactDTW
//
// (ExactDTW can fall below LBSurvivors only when a budget degrades the
// query; these runs are unbudgeted, so the two are equal.)
type StageCounts struct {
	Candidates     int
	KeoghSurvivors int
	ECSurvivors    int
	LBSurvivors    int
	ExactDTW       int
}

func (s *StageCounts) add(st index.QueryStats) {
	s.Candidates += st.Candidates
	s.KeoghSurvivors += st.KeoghSurvivors
	s.ECSurvivors += st.ECSurvivors
	s.LBSurvivors += st.LBSurvivors
	s.ExactDTW += st.ExactDTW
}

// PruningResult holds the aggregated stage counters for the range-query
// and kNN workloads, on the R-tree index and on the LB-enabled linear
// scan. The two structures expose different slices of the cascade: the
// R-tree's leaf filter already applies the New_PAA box during traversal (so
// the cascade's work is LB_Keogh → LB_Improved), while the scan starts from
// the raw corpus, every series a candidate.
type PruningResult struct {
	Config    PruningConfig
	Range     StageCounts
	KNN       StageCounts
	ScanRange StageCounts
	ScanKNN   StageCounts
}

// RunPruningPower builds a New_PAA index over a random-walk database and
// aggregates the cascade's per-stage survivor counters across range and
// kNN queries. Queries are noisy copies of database series (as in the
// Figure 10 setup), so both workloads have realistic selectivity.
//
// KeoghSurvivors doubles as the LB_Keogh-only baseline: before the
// LB_KeoghEC and LB_Improved stages existed, every LB_Keogh survivor went
// straight to exact DTW, so KeoghSurvivors - LBSurvivors is exactly the
// number of exact DTW computations the two stages eliminate.
func RunPruningPower(cfg PruningConfig) (*PruningResult, error) {
	n := cfg.SeriesLen
	entries, queries := pruningCorpus(cfg)
	ix, err := index.BulkLoad(core.NewPAA(n, cfg.Dim), index.Config{}, entries)
	if err != nil {
		return nil, fmt.Errorf("experiments: building pruning index: %w", err)
	}
	scan := index.NewLinearScan(n, true)
	for _, e := range entries {
		if err := scan.Add(e.ID, e.Series); err != nil {
			return nil, fmt.Errorf("experiments: building pruning scan: %w", err)
		}
	}

	res := &PruningResult{Config: cfg}
	radius := cfg.Epsilon * math.Sqrt(float64(n))
	for _, q := range queries {
		_, st := ix.RangeQuery(q, radius, cfg.Delta)
		res.Range.add(st)
		_, st = ix.KNN(q, cfg.TopK, cfg.Delta)
		res.KNN.add(st)
		_, st = scan.RangeQuery(q, radius, cfg.Delta)
		res.ScanRange.add(st)
		_, st = scan.KNN(q, cfg.TopK, cfg.Delta)
		res.ScanKNN.add(st)
	}
	return res, nil
}

// pruningCorpus is the experiment's database — z-normalized random walks —
// and its queries, noisy copies of database series.
func pruningCorpus(cfg PruningConfig) ([]index.Entry, []ts.Series) {
	raw := datasets.Sample(datasets.RandomWalk, cfg.DBSize, cfg.SeriesLen, cfg.Seed)
	entries := make([]index.Entry, len(raw))
	for i, s := range raw {
		entries[i] = index.Entry{ID: int64(i), Series: s.ZNormalize()}
	}
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	queries := make([]ts.Series, cfg.Queries)
	for i := range queries {
		q := entries[r.Intn(len(entries))].Series.Clone()
		for j := range q {
			q[j] += r.NormFloat64() * 0.3
		}
		queries[i] = q.ZNormalize()
	}
	return entries, queries
}

// Render formats the per-stage survivor chain with survival ratios
// relative to the previous stage and the exact-DTW saving over the
// LB_Keogh-only baseline.
func (p *PruningResult) Render() string {
	row := func(name string, s StageCounts) []string {
		frac := func(num, den int) string {
			if den == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", float64(num)/float64(den))
		}
		return []string{
			name,
			fmt.Sprintf("%d", s.Candidates),
			fmt.Sprintf("%d", s.KeoghSurvivors), frac(s.KeoghSurvivors, s.Candidates),
			fmt.Sprintf("%d", s.ECSurvivors), frac(s.ECSurvivors, s.KeoghSurvivors),
			fmt.Sprintf("%d", s.LBSurvivors), frac(s.LBSurvivors, s.ECSurvivors),
			fmt.Sprintf("%d", s.ExactDTW),
			fmt.Sprintf("%d", s.KeoghSurvivors-s.LBSurvivors),
		}
	}
	return renderTable(
		fmt.Sprintf("Pruning power of the LB cascade (%d series, %d queries, delta=%.2f, eps=%.2f, k=%d)",
			p.Config.DBSize, p.Config.Queries, p.Config.Delta, p.Config.Epsilon, p.Config.TopK),
		[]string{"Mode", "Cand", "Keogh", "k/C", "EC", "e/k", "LBImp", "l/e", "DTW", "Saved"},
		[][]string{
			row("rtree-range", p.Range), row("rtree-knn", p.KNN),
			row("scan-range", p.ScanRange), row("scan-knn", p.ScanKNN),
		},
	)
}
