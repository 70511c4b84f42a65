// Benchmark harness: one benchmark family per table and figure of the
// paper, plus ablations for the design choices called out in DESIGN.md.
// Each figure benchmark runs its experiment at a reduced scale suitable for
// `go test -bench` and reports the headline quantity of that figure as a
// custom metric (tightness, candidate ratio, rank-1 count), so regressions
// in the reproduced result — not just in speed — are visible.
//
// Paper-scale runs are produced by `go run ./cmd/experiments -run all`.
package warping_test

import (
	"fmt"
	"math/rand"
	"testing"

	"warping"
	"warping/internal/experiments"
)

// --- Table 2: retrieval quality, time series vs contour ---------------------

func BenchmarkTable2_QualityComparison(b *testing.B) {
	cfg := experiments.QualityConfig{Songs: 10, NotesPerSong: 120, Queries: 5, Seed: 21}
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TimeSeries[experiments.Rank1]), "ts-rank1")
	b.ReportMetric(float64(res.Contour[experiments.Rank1]), "contour-rank1")
}

// --- Table 3: poor singers vs warping width ---------------------------------

func BenchmarkTable3_WarpingWidths(b *testing.B) {
	cfg := experiments.QualityConfig{Songs: 10, NotesPerSong: 120, Queries: 5, Seed: 22}
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for wi, w := range res.Widths {
		b.ReportMetric(float64(res.Histograms[wi][experiments.Rank1]), "rank1@"+f2s(w))
	}
}

// --- Figure 6: tightness across dataset families ----------------------------

func BenchmarkFig6_TightnessAcrossDatasets(b *testing.B) {
	cfg := experiments.Figure6Config{SeriesLen: 128, Dim: 4, SeriesPerSet: 8, WarpingWidth: 0.1, Seed: 23}
	var res *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure6(cfg)
	}
	b.ReportMetric(res.MeanRatio(), "new/keogh")
}

// --- Figure 7: tightness vs warping width ------------------------------------

func BenchmarkFig7_TightnessVsWidth(b *testing.B) {
	cfg := experiments.Figure7Config{
		SeriesLen: 128, Dim: 4,
		Widths: []float64{0, 0.05, 0.1}, Pairs: 50, Seed: 24,
	}
	var res *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure7(cfg)
	}
	// Report the curves' endpoint tightness per transform.
	last := res.T[len(res.T)-1]
	for ti, name := range res.Names {
		b.ReportMetric(last[ti], "T@0.1-"+name)
	}
}

// --- Figures 8-10: candidates and page accesses ------------------------------

func benchScalability(b *testing.B, run func(experiments.ScalabilityConfig) (*experiments.ScalabilityResult, error), cfg experiments.ScalabilityConfig) {
	b.Helper()
	var res *experiments.ScalabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: Keogh/New candidate ratio at the smallest width and
	// threshold (where the paper reports up to 10x).
	keogh := res.Candidates[0][0][0]
	newPAA := res.Candidates[0][0][1]
	if newPAA > 0 {
		b.ReportMetric(keogh/newPAA, "keogh/new-cand")
	}
	b.ReportMetric(res.PageAccesses[0][0][0], "pages-keogh")
	b.ReportMetric(res.PageAccesses[0][0][1], "pages-new")
}

func BenchmarkFig8_MelodyDatabase(b *testing.B) {
	benchScalability(b, experiments.RunFigure8, experiments.ScalabilityConfig{
		DBSize: 500, SeriesLen: 128, Dim: 8,
		Widths: []float64{0.02, 0.1, 0.2}, Thresholds: []float64{0.2, 0.8},
		Queries: 5, Seed: 25,
	})
}

func BenchmarkFig9_LargeMusicDatabase(b *testing.B) {
	benchScalability(b, experiments.RunFigure9, experiments.ScalabilityConfig{
		DBSize: 2000, SeriesLen: 128, Dim: 8,
		Widths: []float64{0.02, 0.1, 0.2}, Thresholds: []float64{0.2, 0.8},
		Queries: 5, Seed: 26,
	})
}

func BenchmarkFig10_RandomWalkDatabase(b *testing.B) {
	benchScalability(b, experiments.RunFigure10, experiments.ScalabilityConfig{
		DBSize: 2000, SeriesLen: 128, Dim: 8,
		Widths: []float64{0.02, 0.1, 0.2}, Thresholds: []float64{0.2, 0.8},
		Queries: 5, Seed: 27,
	})
}

// --- Ablations ----------------------------------------------------------------

func buildBenchIndex(b *testing.B, tr warping.Transform, size int, cfg warping.RTreeConfig) (*warping.Index, []warping.Series) {
	b.Helper()
	r := rand.New(rand.NewSource(99))
	ix := warping.NewIndexWithConfig(tr, cfg)
	queries := make([]warping.Series, 20)
	n := tr.InputLen()
	for i := 0; i < size; i++ {
		s := warping.Normalize(benchWalk(r, n+r.Intn(n)), n)
		if err := ix.Add(int64(i), s); err != nil {
			b.Fatal(err)
		}
		if i < len(queries) {
			q := s.Clone()
			for j := range q {
				q[j] += r.NormFloat64() * 0.5
			}
			queries[i] = warping.Normalize(q, n)
		}
	}
	return ix, queries
}

func benchWalk(r *rand.Rand, n int) warping.Series {
	s := make(warping.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s
}

// Ablation: envelope transform choice, identical workload.
func BenchmarkAblation_Transform(b *testing.B) {
	const n, dim, size = 128, 8, 3000
	for _, tc := range []struct {
		name string
		tr   warping.Transform
	}{
		{"NewPAA", warping.NewPAATransform(n, dim)},
		{"KeoghPAA", warping.NewKeoghPAATransform(n, dim)},
		{"DFT", warping.NewDFTTransform(n, dim)},
		{"DWT", warping.NewHaarTransform(n, dim)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ix, queries := buildBenchIndex(b, tc.tr, size, warping.RTreeConfig{})
			var cand int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := ix.RangeQuery(queries[i%len(queries)], 8, 0.1)
				cand += stats.Candidates
			}
			b.ReportMetric(float64(cand)/float64(b.N), "candidates/query")
		})
	}
}

// Ablation: reduced dimensionality.
func BenchmarkAblation_Dimensionality(b *testing.B) {
	const n, size = 128, 3000
	for _, dim := range []int{4, 8, 16, 32} {
		b.Run(dimName(dim), func(b *testing.B) {
			ix, queries := buildBenchIndex(b, warping.NewPAATransform(n, dim), size, warping.RTreeConfig{})
			var cand int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := ix.RangeQuery(queries[i%len(queries)], 8, 0.1)
				cand += stats.Candidates
			}
			b.ReportMetric(float64(cand)/float64(b.N), "candidates/query")
		})
	}
}

// Ablation: warping width (band radius) effect on query cost.
func BenchmarkAblation_WarpingWidth(b *testing.B) {
	const n, dim, size = 128, 8, 3000
	ix, queries := buildBenchIndex(b, warping.NewPAATransform(n, dim), size, warping.RTreeConfig{})
	for _, delta := range []float64{0.02, 0.05, 0.1, 0.2} {
		b.Run("delta="+f2s(delta), func(b *testing.B) {
			var cand int
			for i := 0; i < b.N; i++ {
				_, stats := ix.RangeQuery(queries[i%len(queries)], 8, delta)
				cand += stats.Candidates
			}
			b.ReportMetric(float64(cand)/float64(b.N), "candidates/query")
		})
	}
}

// Ablation: R* forced reinsertion on vs off (insert cost and query cost).
func BenchmarkAblation_RStarReinsert(b *testing.B) {
	const n, dim, size = 128, 8, 3000
	for _, tc := range []struct {
		name string
		cfg  warping.RTreeConfig
	}{
		{"reinsert-on", warping.RTreeConfig{}},
		{"reinsert-off", warping.RTreeConfig{DisableReinsert: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pages int
			var ix *warping.Index
			var queries []warping.Series
			for i := 0; i < b.N; i++ {
				ix, queries = buildBenchIndex(b, warping.NewPAATransform(n, dim), size, tc.cfg)
			}
			for _, q := range queries {
				_, stats := ix.RangeQuery(q, 8, 0.1)
				pages += stats.PageAccesses
			}
			b.ReportMetric(float64(pages)/float64(len(queries)), "pages/query")
		})
	}
}

// Baseline comparison: indexed search vs brute-force linear DTW scan (the
// speed argument of the whole paper, and the complaint in [19]).
func BenchmarkIndexVsBruteForce(b *testing.B) {
	const n, dim, size = 128, 8, 2000
	ix, queries := buildBenchIndex(b, warping.NewPAATransform(n, dim), size, warping.RTreeConfig{})
	db := make([]warping.Series, 0, size)
	ix.Visit(func(id int64, s warping.Series) { db = append(db, s) })

	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.RangeQuery(queries[i%len(queries)], 8, 0.1)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		k := warping.BandRadius(n, 0.1)
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			for _, s := range db {
				warping.DTWBanded(q, s, k)
			}
		}
	})
}

// --- Steady-state query benchmarks ------------------------------------------
//
// These are the headline serving-path numbers: a fixed seeded corpus, a
// fixed query mix, repeated queries against a warm index. Run with
// -benchmem (`make bench`): the candidate-verification pipeline is expected
// to hold steady-state allocations near zero.

func BenchmarkRangeQuery(b *testing.B) {
	const n, dim, size = 128, 8, 2000
	ix, queries := buildBenchIndex(b, warping.NewPAATransform(n, dim), size, warping.RTreeConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RangeQuery(queries[i%len(queries)], 8, 0.1)
	}
}

func BenchmarkKNN(b *testing.B) {
	const n, dim, size = 128, 8, 2000
	ix, queries := buildBenchIndex(b, warping.NewPAATransform(n, dim), size, warping.RTreeConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(queries[i%len(queries)], 10, 0.1)
	}
}

func f2s(v float64) string { return fmt.Sprintf("%.2f", v) }

func dimName(d int) string { return fmt.Sprintf("dim=%d", d) }
