package experiments

import (
	"fmt"
	"math"

	"warping/internal/core"
	"warping/internal/datasets"
	"warping/internal/index"
	"warping/internal/ts"
)

// StructuresConfig parameterizes the index-structure comparison (an
// extension experiment, not a paper figure): the same New_PAA feature space
// served by an R*-tree and by the LB-pruned linear scan, plus
// the raw brute-force scan the direct-audio matchers [19] used.
type StructuresConfig struct {
	DBSize    int
	SeriesLen int
	Dim       int
	Epsilon   float64 // in units of sqrt(n), like the Figure 8-10 protocol
	Width     float64
	Queries   int
	Seed      int64
}

// DefaultStructuresConfig compares the structures at the melody-database
// scale.
func DefaultStructuresConfig() StructuresConfig {
	return StructuresConfig{
		DBSize: 5000, SeriesLen: 128, Dim: 8,
		Epsilon: 0.3, Width: 0.1, Queries: 20, Seed: 30,
	}
}

// StructureRow is the measured cost of one index structure.
type StructureRow struct {
	Name       string
	Candidates float64
	ExactDTW   float64
	Pages      float64
	Matches    float64
}

// StructuresResult holds per-structure mean costs.
type StructuresResult struct {
	Config StructuresConfig
	Rows   []StructureRow
}

// RunStructures measures mean query cost per structure on a random-walk
// database with near-duplicate queries. All structures return identical
// match sets (exactness), so only the costs differ.
func RunStructures(cfg StructuresConfig) (*StructuresResult, error) {
	tr := core.NewPAA(cfg.SeriesLen, cfg.Dim)
	raw := datasets.Sample(datasets.RandomWalk, cfg.DBSize, cfg.SeriesLen, cfg.Seed)
	db := make([]ts.Series, len(raw))
	entries := make([]index.Entry, len(raw))
	for i, s := range raw {
		db[i] = s.ZNormalize()
		entries[i] = index.Entry{ID: int64(i), Series: db[i]}
	}
	rtreeIx, err := index.BulkLoad(tr, index.Config{}, entries)
	if err != nil {
		return nil, err
	}
	scanLB := index.NewLinearScan(cfg.SeriesLen, true)
	scanRaw := index.NewLinearScan(cfg.SeriesLen, false)
	for i, s := range db {
		if err := scanLB.Add(int64(i), s); err != nil {
			return nil, err
		}
		if err := scanRaw.Add(int64(i), s); err != nil {
			return nil, err
		}
	}

	queries := make([]ts.Series, cfg.Queries)
	{
		sample := datasets.Sample(datasets.RandomWalk, cfg.Queries, cfg.SeriesLen, cfg.Seed+999)
		for i := range queries {
			// Noisy near-duplicate of a database series.
			q := db[(i*37)%len(db)].Clone()
			for j := range q {
				q[j] += sample[i][j] * 0.02
			}
			queries[i] = q.ZNormalize()
		}
	}

	radius := cfg.Epsilon * math.Sqrt(float64(cfg.SeriesLen))
	type runner struct {
		name string
		fn   func(q ts.Series) ([]index.Match, index.QueryStats)
	}
	runners := []runner{
		{"R*-tree", func(q ts.Series) ([]index.Match, index.QueryStats) {
			return rtreeIx.RangeQuery(q, radius, cfg.Width)
		}},
		{"Scan+LB", func(q ts.Series) ([]index.Match, index.QueryStats) {
			return scanLB.RangeQuery(q, radius, cfg.Width)
		}},
		{"Brute force", func(q ts.Series) ([]index.Match, index.QueryStats) {
			return scanRaw.RangeQuery(q, radius, cfg.Width)
		}},
	}
	res := &StructuresResult{Config: cfg}
	var wantMatches float64 = -1
	for _, r := range runners {
		var row StructureRow
		row.Name = r.name
		for _, q := range queries {
			ms, st := r.fn(q)
			row.Candidates += float64(st.Candidates)
			row.ExactDTW += float64(st.ExactDTW)
			row.Pages += float64(st.PageAccesses)
			row.Matches += float64(len(ms))
		}
		qn := float64(len(queries))
		row.Candidates /= qn
		row.ExactDTW /= qn
		row.Pages /= qn
		row.Matches /= qn
		if wantMatches < 0 {
			wantMatches = row.Matches
		} else if row.Matches != wantMatches {
			return nil, fmt.Errorf("experiments: %s returned %.2f matches, want %.2f (exactness violated)",
				r.name, row.Matches, wantMatches)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the structure comparison.
func (s *StructuresResult) Render() string {
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{r.Name, f2(r.Candidates), f2(r.ExactDTW), f2(r.Pages), f2(r.Matches)}
	}
	return renderTable(
		fmt.Sprintf("Index structures (extension): %d series, eps=%.1f, width=%.2f, %d queries",
			s.Config.DBSize, s.Config.Epsilon, s.Config.Width, s.Config.Queries),
		[]string{"Structure", "Candidates", "Exact DTW", "Pages", "Matches"},
		rows,
	)
}
