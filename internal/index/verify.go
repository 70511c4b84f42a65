// Candidate refinement: the one loop every query verifies through. A
// candidate source — the tree walk (rtree.NNIter, with the delta pushed
// onto its frontier: drained at epsilon and handed over in slot order for
// a range query, pulled one at a time under the cutoff for a kNN) or the
// scan baseline's loop over slots — hands each candidate to refiner.refine, which
// runs it through a cascade of lower bounds and finally exact banded DTW at
// the query's cutoff, and hands a match to the query's sink.
// Cutoff and sink are plain fields: a fixed ε² and an append for a range
// query, the shrinking kth-best distance and the top-k heap for a kNN. All
// of it is allocation-free in steady state (the DP rows and the bounds'
// envelopes live in the query's pooled scratch, and so does the buffer a
// byte record is decoded into). A candidate's record is read from the query's
// corpusReader once, and only when a stage runs: LB_Keogh and LB_KeoghEC
// read a byte record's bytes, and only their survivors are decoded.
package index

import (
	"context"
	"fmt"
	"math"

	"warping/internal/dtw"
	"warping/internal/rtree"
	"warping/internal/ts"
)

// lbOutcome reports how far a candidate got through the lower-bound
// cascade: which stage pruned it, or lbPassed when it must go to exact DTW.
type lbOutcome uint8

const (
	prunedKeogh lbOutcome = iota
	prunedEC
	prunedImproved
	lbPassed
)

// refiner is the refinement state of one query: the plan's cascade
// constants, the reader its candidates' series come through, the cutoff and
// the sink, and the work it has done. The feature-space box is the
// candidate source's, applied before a candidate surfaces, and it
// lower-bounds LB_Keogh (Theorem 1), so LB_Keogh prunes whatever it would at
// the same threshold.
type refiner struct {
	*Plan
	// useLB false disables the whole cascade — the brute-force scan
	// baseline used by the experiments package.
	useLB bool
	// w2 is the squared cutoff a candidate must come within: ε² for a
	// range query; for a kNN the kth-best group distance squared (widened
	// by tieSlack), +Inf until k groups are held or with the cascade off.
	w2 float64
	// best is a kNN's sink, the running top k; nil for a range query, whose
	// matches are appended to sc.out.
	best  *topK
	sc    *scratch
	r     corpusReader
	lim   Limits
	stats QueryStats
	err   error
}

// newRefiner is the per-query setup every query shares: the plan, a reader
// over st, the pooled scratch and the limits. The caller makes it a range
// query (within) or a kNN (best = sc.topK(k)) before the first candidate.
func newRefiner(st *corpus, p *Plan, useLB bool, lim Limits, sc *scratch) refiner {
	r := st.reader()
	if st.coded {
		if cap(sc.x) < st.n {
			sc.x = make([]float64, st.n)
		}
		r.buf = sc.x[:st.n]
	}
	return refiner{Plan: p, useLB: useLB, w2: math.Inf(1), sc: sc, r: r, lim: lim}
}

// within makes rf a range query of radius epsilon. A negative or NaN
// radius is an error: squared, −1 would serve as 1, and NaN would refine
// every candidate and match none.
func (rf *refiner) within(epsilon float64) error {
	if !(epsilon >= 0) {
		return fmt.Errorf("index: range radius %v is not a non-negative number", epsilon)
	}
	rf.w2 = epsilon * epsilon
	return nil
}

// tieSlack widens a squared cutoff rebuilt from a kept distance: with
// D = fl(√d²), fl(D·D) can round below d², and a later candidate at exactly
// the kth-best distance (the same phrase in another song) must still reach
// the top-k, whose (distance, group) order decides the tie. Every d² whose
// root rounds to D lies below D²·(1+2⁻⁵⁰).
const tieSlack = 1 + 0x1p-50

// refine processes the candidate id stored in slot: cancellation and
// budget checks, the lower-bound cascade at the current cutoff, exact
// banded DTW, and the sink (for a kNN, under the candidate's group). It
// returns false when the whole query must stop — cancellation or a paged
// read failure (rf.err records it) or an exhausted exact-DTW budget
// (rf.stats.Degraded records it). A candidate that is pruned returns true:
// the caller keeps going.
func (rf *refiner) refine(ctx context.Context, id int64, slot int32) bool {
	if err := ctx.Err(); err != nil {
		rf.err = err
		return false
	}
	if rf.lim.exhausted(rf.stats.ExactDTW) {
		rf.stats.Degraded = true
		return false
	}
	rf.stats.Candidates++
	rf.stats.CoarseSurvivors++ // alias of Candidates
	o, x, err := rf.cascade(int(slot), rf.w2)
	if err != nil {
		rf.err = err
		return false
	}
	if o == prunedKeogh {
		return true
	}
	rf.stats.KeoghSurvivors++
	if o == prunedEC {
		return true
	}
	rf.stats.ECSurvivors++
	if o != lbPassed {
		return true
	}
	rf.stats.LBSurvivors++
	rf.stats.ExactDTW++
	// Early-abandoning DTW: most candidates blow past the cutoff in the
	// first few DP rows.
	d2, ok := rf.sc.ws.SquaredBandedWithin(x, rf.q, rf.band, rf.w2)
	if !ok {
		return true
	}
	if rf.best == nil {
		rf.sc.out = append(rf.sc.out, Match{ID: id, Dist: math.Sqrt(d2)})
		return true
	}
	rf.best.offer(id, rf.lim.groupOf(id), math.Sqrt(d2))
	if rf.useLB && rf.best.full() {
		w := rf.best.worst()
		rf.w2 = w * w * tieSlack
	}
	return true
}

// cascade runs the lower-bound cascade against the candidate in slot at
// squared threshold w2:
//
//  1. LB_Keogh: the full-dimensional distance from the candidate to the
//     query's envelope, early abandoning at w2;
//  2. LB_KeoghEC, its roles reversed: the distance from the query to the
//     candidate's own envelope, early abandoning at w2. The band is
//     symmetric, so this bounds DTW too, and neither bound dominates the
//     other;
//  3. Lemire's LB_Improved second pass over the survivors: the candidate is
//     projected onto the query envelope (SIMD clamp kernel) and the
//     distance from the query to the projection's envelope is added to the
//     forward bound of stage 1, early abandoning at the remaining budget
//     w2-fwd.
//
// At band 0 each envelope is its series, stages 2 and 3 add nothing to
// stage 1, and they are skipped. Every stage is a lower bound of squared
// banded DTW, so a pruned outcome means the candidate provably cannot match
// (no false dismissals). With the cascade disabled or no threshold yet
// (w2 = +Inf: a kNN still filling its top k) nothing can prune and the
// series goes straight to DTW. The same stages run in RAM and out of core,
// on the same values. A slot of the packed base that holds a byte record is
// bounded by stages 1 and 2 on the record's bytes as they are — stage 2's
// envelope is a sliding min and max over bytes — with the same sums, bit
// for bit, as on its series (dtw.SquaredBytesToEnvelopeWithin,
// dtw.Workspace.SquaredLBKeoghECBytesWithin), and only a survivor is
// decoded, once, into the reader's buffer (the query's pooled scratch.x)
// for LB_Improved and DTW. A float64 series gets stage 2's envelope from
// the streamed ts.Extremes. The series comes back with lbPassed for the
// exact DTW that follows; the error is a paged read failure.
func (rf *refiner) cascade(slot int, w2 float64) (lbOutcome, ts.Series, error) {
	rec, x, err := rf.r.record(slot)
	if err != nil {
		return prunedKeogh, nil, err
	}
	prune := rf.useLB && !math.IsInf(w2, 1)
	var fwd float64
	if prune {
		ok := false
		if rec != nil {
			fwd, ok = dtw.SquaredBytesToEnvelopeWithin(rec[recordHeader:], recordBase(rec), rf.env, w2)
		} else {
			fwd, ok = dtw.SquaredDistToEnvelopeWithin(x, rf.env, w2)
		}
		if !ok {
			return prunedKeogh, nil, nil
		}
		if rf.band > 0 {
			if rec != nil {
				_, ok = rf.sc.ws.SquaredLBKeoghECBytesWithin(rf.q, rec[recordHeader:], recordBase(rec), rf.band, w2)
			} else {
				_, ok = rf.sc.ws.SquaredLBKeoghECWithin(rf.q, x, rf.band, w2)
			}
			if !ok {
				return prunedEC, nil, nil
			}
		}
	}
	if rec != nil {
		x = rf.r.decode(rec)
	}
	if prune && rf.band > 0 {
		if _, ok := rf.sc.ws.SquaredLBImprovedWithin(rf.q, x, rf.env, rf.band, fwd, w2); !ok {
			return prunedImproved, nil, nil
		}
	}
	return lbPassed, x, nil
}

// done ends the query: it charges the stats with the nodes the candidate
// source visited (t) and the pages the query read — real pool misses when
// the index is paged, the logical visits otherwise — releases the reader,
// and returns the stats with the error that stopped the query, if any.
func (rf *refiner) done(t rtree.Stats, paged bool) (QueryStats, error) {
	rf.stats.LogicalPages = t.NodeAccesses
	rf.stats.FrontierPushes = t.FrontierPushes
	if paged {
		rf.stats.PageAccesses = t.PageMisses + rf.r.misses()
	} else {
		rf.stats.PageAccesses = rf.stats.LogicalPages
	}
	rf.r.release()
	return rf.stats, rf.err
}
