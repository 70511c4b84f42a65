package index

import (
	"cmp"
	"math"
	"slices"

	"warping/internal/dtw"
	"warping/internal/ts"
)

// BruteForce is the exactness oracle every configuration of the index is
// held to — Theorem 1's no false dismissals, and no false hits either: the
// exact banded DTW distance math.Sqrt(dtw.SquaredBanded) from q to every
// entry at warping width delta, the best member of each group by
// (distance, id), the groups in (distance, group) order, the first k.
// groupOf is Limits.GroupOf's: nil is the identity grouping (the plain kNN).
// A range answer at epsilon is the prefix within epsilon of the identity
// grouping's full ranking (k = len(entries)).
//
// It shares no code with the engine — no topK, no Workspace, no cascade —
// and costs one full DTW per entry, so it is for tests: its callers are the
// model-based tests of this package and of qbh.
func BruteForce(entries []Entry, q ts.Series, delta float64, k int, groupOf func(id int64) int64) []Match {
	type member struct {
		Match
		group int64
	}
	band := dtw.BandRadius(len(q), delta)
	best := make(map[int64]member)
	for _, e := range entries {
		g := e.ID
		if groupOf != nil {
			g = groupOf(e.ID)
		}
		m := member{Match{ID: e.ID, Dist: math.Sqrt(dtw.SquaredBanded(e.Series, q, band))}, g}
		if cur, held := best[g]; !held || m.Dist < cur.Dist || (m.Dist == cur.Dist && m.ID < cur.ID) {
			best[g] = m
		}
	}
	ranked := make([]member, 0, len(best))
	for _, m := range best {
		ranked = append(ranked, m)
	}
	slices.SortFunc(ranked, func(a, b member) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.group, b.group)
	})
	out := make([]Match, min(max(k, 0), len(ranked)))
	for i := range out {
		out[i] = ranked[i].Match
	}
	return out
}
