// Candidate verification: the refinement cascade shared by the Index and
// the experiment baseline. Candidates surviving a feature-space filter
// (R-tree box search, or the trivial all-candidates filter of the linear
// scan) arrive as corpus slots and run through a
// cascade of ever-tighter lower bounds and finally exact banded DTW, all of
// it allocation-free in steady state (pooled dtw.Workspaces). The series
// (and out of core, first, its shadow) is read from the query's
// corpusReader once per candidate, and only when a stage runs.
package index

import (
	"context"
	"math"
	"sync"

	"warping/internal/dtw"
	"warping/internal/ts"
)

// verifier bundles the scratch state one goroutine needs to verify
// candidates. Obtained from a sync.Pool so concurrent queries never contend
// on shared buffers.
type verifier struct {
	ws dtw.Workspace
}

var verifierPool = sync.Pool{New: func() interface{} { return new(verifier) }}

func getVerifier() *verifier  { return verifierPool.Get().(*verifier) }
func putVerifier(v *verifier) { verifierPool.Put(v) }

// lbOutcome reports how far a candidate got through the lower-bound
// cascade: which stage pruned it, or lbPassed when it must go to exact DTW.
type lbOutcome uint8

const (
	prunedKeogh lbOutcome = iota
	prunedImproved
	lbPassed
)

// lbQuery carries the per-query constants of the cascade: the query, its
// envelope and the band radius. The feature-space box is not among them: it
// is the tree's, applied before a candidate surfaces, and it lower-bounds
// LB_Keogh (Theorem 1), so LB_Keogh prunes whatever it would at the same
// threshold. useLB false disables the whole cascade — the brute-force scan
// baseline used by the experiments package.
type lbQuery struct {
	q     ts.Series
	env   dtw.Envelope
	band  int
	useLB bool
}

// rangeQuery is the cascade of one range verification at its fixed squared
// threshold.
type rangeQuery struct {
	lbQuery
	eps2 float64
}

// cascade runs the lower-bound cascade against the candidate in slot at
// squared threshold w2:
//
//  0. out of core only, the distance from the candidate's 8-bit shadow to
//     the query envelope (dtw.SquaredShadowDistToEnvelopeWithin), read from
//     the shadow column before the series is: it is at most LB_Keogh's in
//     floating point and abandons only where LB_Keogh would at the same w2,
//     so its prune is an LB_Keogh prune, counted as one, that saved the
//     series page read. In RAM the series costs nothing to read and the
//     stage would only add work, so the corpus keeps no shadow there;
//  1. the full-dimensional LB_Keogh distance to the query envelope, early
//     abandoning at w2;
//  2. Lemire's LB_Improved second pass over LB_Keogh survivors: the
//     candidate is projected onto the query envelope (SIMD clamp kernel)
//     and the distance from the query to the projection's envelope is
//     added to the forward bound, early abandoning at the remaining
//     budget w2-fwd. At band 0 the projection's envelope degenerates to
//     the query itself (the second term is identically zero), so the pass
//     is skipped.
//
// Every stage is a lower bound of squared banded DTW, so a pruned outcome
// means the candidate provably cannot match (no false dismissals); each is
// tighter and costlier than the one before. With the cascade disabled or no
// threshold yet (w2 = +Inf: a kNN still filling its top k) nothing can
// prune and the series alone is read, for DTW. The series comes back with
// lbPassed for the exact DTW that follows; the error is a paged read
// failure.
func (v *verifier) cascade(c *lbQuery, r *corpusReader, slot int, w2 float64) (lbOutcome, ts.Series, error) {
	if !c.useLB || math.IsInf(w2, 1) {
		x, err := r.series(slot)
		return lbPassed, x, err
	}
	sh, paged, err := r.shadow(slot)
	if err != nil {
		return prunedKeogh, nil, err
	}
	if paged {
		if _, ok := dtw.SquaredShadowDistToEnvelopeWithin(sh, c.env, w2); !ok {
			return prunedKeogh, nil, nil
		}
	}
	x, err := r.series(slot)
	if err != nil {
		return prunedKeogh, nil, err
	}
	fwd, ok := dtw.SquaredDistToEnvelopeWithin(x, c.env, w2)
	if !ok {
		return prunedKeogh, nil, nil
	}
	if c.band > 0 {
		if _, ok := v.ws.SquaredLBImprovedWithin(c.q, x, c.env, c.band, fwd, w2); !ok {
			return prunedImproved, nil, nil
		}
	}
	return lbPassed, x, nil
}

// knnState is the refinement state of one kNN query, shared by the
// R-tree's best-first traversal and the linear scan: the running top-k of
// distinct groups, the lower-bound cascade at the current cutoff, and
// budget/cancellation handling.
type knnState struct {
	lbQuery
	v     *verifier
	r     *corpusReader
	best  *topK
	lim   Limits
	stats *QueryStats
	err   error
}

// cutoff is the current pruning threshold: the kth-best group distance,
// infinite until k groups are held. A candidate whose lower bound exceeds it
// cannot improve any group into the top k: its own group, if held, already
// has a distance at or below the cutoff.
func (s *knnState) cutoff() float64 {
	if s.best.full() {
		return s.best.worst()
	}
	return math.Inf(1)
}

// tieSlack widens a squared cutoff rebuilt from a kept distance: with
// D = fl(√d²), fl(D·D) can round below d², and a later candidate at exactly
// the kth-best distance (the same phrase in another song) must still reach
// the top-k, whose (distance, group) order decides the tie. Every d² whose
// root rounds to D lies below D²·(1+2⁻⁵⁰).
const tieSlack = 1 + 0x1p-50

// refine processes the candidate id stored in slot: cancellation and
// budget checks, group resolution, the lower-bound cascade at the current
// cutoff, exact banded DTW, and the top-k update. It returns false when the
// whole traversal must stop — cancellation or a paged read failure (s.err
// records it) or an exhausted exact-DTW budget (s.stats.Degraded records
// it). A candidate that is pruned, or whose group is gone, returns true: the
// caller keeps traversing.
func (s *knnState) refine(ctx context.Context, id int64, slot int32) bool {
	if err := ctx.Err(); err != nil {
		s.err = err
		return false
	}
	if s.lim.exhausted(s.stats.ExactDTW) {
		s.stats.Degraded = true
		return false
	}
	group, ok := s.lim.groupOf(id)
	if !ok {
		return true
	}
	s.stats.Candidates++
	s.stats.CoarseSurvivors++ // alias of Candidates
	w2 := math.Inf(1)
	if s.useLB {
		cutoff := s.cutoff()
		w2 = cutoff * cutoff * tieSlack
	}
	o, x, err := s.v.cascade(&s.lbQuery, s.r, int(slot), w2)
	if err != nil {
		s.err = err
		return false
	}
	if o == prunedKeogh {
		return true
	}
	s.stats.KeoghSurvivors++
	if o != lbPassed {
		return true
	}
	s.stats.LBSurvivors++
	if s.lim.CandidateHook != nil {
		s.lim.CandidateHook()
	}
	s.stats.ExactDTW++
	if d2, ok := s.v.ws.SquaredBandedWithin(x, s.q, s.band, w2); ok {
		s.best.offer(id, group, math.Sqrt(d2))
	}
	return true
}

// verifyRange refines the candidate set of a range query into exact
// matches (unsorted), appending them to dst. It updates the per-stage
// survivor counters, stats.ExactDTW and stats.Degraded, and honors the
// context and the query's exact-DTW budget. The returned error is ctx.Err()
// when the query was abandoned mid-verification, or a paged read failure.
func verifyRange(ctx context.Context, st *corpus, rq *rangeQuery, slots []int32, lim Limits, stats *QueryStats, dst []Match) ([]Match, error) {
	v := getVerifier()
	defer putVerifier(v)
	r := st.reader()
	defer func() {
		stats.PageAccesses += r.misses()
		r.release()
	}()
	stats.CoarseSurvivors = stats.Candidates // alias
	out := dst
	var err error
	for _, slot := range slots {
		if e := ctx.Err(); e != nil {
			err = e
			break
		}
		if lim.exhausted(stats.ExactDTW) {
			stats.Degraded = true
			break
		}
		o, x, cerr := v.cascade(&rq.lbQuery, &r, int(slot), rq.eps2)
		if cerr != nil {
			err = cerr
			break
		}
		if o == prunedKeogh {
			continue
		}
		stats.KeoghSurvivors++
		if o != lbPassed {
			continue
		}
		stats.LBSurvivors++
		if lim.CandidateHook != nil {
			lim.CandidateHook()
		}
		stats.ExactDTW++
		// Early-abandoning DTW: most candidates blow past epsilon in the
		// first few DP rows.
		if d2, ok := v.ws.SquaredBandedWithin(x, rq.q, rq.band, rq.eps2); ok {
			out = append(out, Match{ID: st.ids[slot], Dist: math.Sqrt(d2)})
		}
	}
	return out, err
}
