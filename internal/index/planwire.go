package index

import (
	"fmt"

	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/ts"
)

// Plan shipping: a coordinator computes one Plan for a logical query —
// normal form, k-envelope, feature-space box — and fans it out to shard
// groups over the wire, so the envelope transform runs exactly once per
// query for the whole cluster instead of once per replica. PlanWire is
// the JSON-serializable projection; PlanFromWire validates and rebuilds a
// Plan without recomputing any transform work.

// PlanWire is the serialized form of a Plan.
type PlanWire struct {
	// Q is the normalized query series.
	Q []float64 `json:"q"`
	// Band is the warping band radius the envelope was computed at.
	Band int `json:"band"`
	// EnvLo/EnvHi are the query's k-envelope (same length as Q).
	EnvLo []float64 `json:"env_lo"`
	EnvHi []float64 `json:"env_hi"`
	// FeLo/FeHi are the feature-space envelope box; empty when the plan
	// carries no transform.
	FeLo []float64 `json:"fe_lo,omitempty"`
	FeHi []float64 `json:"fe_hi,omitempty"`
	// CoarseLo/CoarseHi are the coarse New_PAA pre-stage box; empty when
	// the series length forbids a coarse companion (see coarseCompanion).
	CoarseLo []float64 `json:"coarse_lo,omitempty"`
	CoarseHi []float64 `json:"coarse_hi,omitempty"`
}

// NewQueryPlan computes a standalone plan — the coordinator-side
// constructor, for callers that hold a transform but no index. tr may be
// nil (no feature box: what a coordinator without the fitted SVD ships). The
// coarse pre-stage box is included exactly when a replica corpus of the
// same shape would carry a coarse column (coarseCompanion is a pure
// function of the series length and tr), so the planned-query path and the
// single-node path run the identical cascade.
func NewQueryPlan(q ts.Series, delta float64, tr core.Transform) *Plan {
	return makePlan(q, delta, len(q), tr, coarseCompanion(len(q), tr))
}

// SeriesLen returns the length of the plan's query series, which must
// match the normal-form length of any index the plan is executed against.
func (p *Plan) SeriesLen() int { return len(p.q) }

// Wire returns the serializable projection of the plan. The slices alias
// the plan's internal state, which is immutable — callers must not write
// through them.
func (p *Plan) Wire() PlanWire {
	w := PlanWire{
		Q:     p.q,
		Band:  p.band,
		EnvLo: p.env.Lower,
		EnvHi: p.env.Upper,
	}
	if p.hasFE {
		w.FeLo = p.fe.Lower
		w.FeHi = p.fe.Upper
	}
	if p.hasCFE {
		w.CoarseLo = p.cfe.Lower
		w.CoarseHi = p.cfe.Upper
	}
	return w
}

// CheckPlan verifies that a (possibly shipped) plan is executable against
// this index: the query length matches the normal-form length and, when
// both sides carry a feature box, the dimensionalities agree. A plan
// without a feature box is allowed — the cascade just skips the box
// pre-check — but a box of the wrong dimensionality would index out of
// bounds in the verification kernels and is rejected up front.
func (sh *Sharded) CheckPlan(p *Plan) error {
	if p.SeriesLen() != sh.SeriesLen() {
		return queryLengthError(p.SeriesLen(), sh.SeriesLen())
	}
	st := sh.corpus()
	if st.transform != nil && p.hasFE && p.fe.Len() != st.transform.OutputLen() {
		return fmt.Errorf("index: plan feature box has dim %d, index transform has %d", p.fe.Len(), st.transform.OutputLen())
	}
	if st.cdim > 0 && p.hasCFE && p.cfe.Len() != st.cdim {
		return fmt.Errorf("index: plan coarse box has dim %d, index coarse column has %d", p.cfe.Len(), st.cdim)
	}
	return nil
}

// PlanFromWire validates a shipped plan and rebuilds it. The envelope and
// feature box are trusted as computed (that is the point of shipping: no
// recomputation) but must be structurally sound — matching lengths, a
// well-formed lower<=upper envelope — so a corrupt or adversarial plan
// cannot index out of bounds or break the no-false-negative cascade in
// silent ways.
func PlanFromWire(w PlanWire) (*Plan, error) {
	if len(w.Q) == 0 {
		return nil, fmt.Errorf("index: shipped plan has empty query")
	}
	if w.Band < 0 || w.Band >= len(w.Q) {
		return nil, fmt.Errorf("index: shipped plan band %d out of range for length %d", w.Band, len(w.Q))
	}
	env := dtw.Envelope{Lower: w.EnvLo, Upper: w.EnvHi}
	if len(w.EnvLo) != len(w.Q) || !env.Valid() {
		return nil, fmt.Errorf("index: shipped plan envelope malformed")
	}
	p := &Plan{q: w.Q, band: w.Band, env: env}
	if len(w.FeLo) > 0 || len(w.FeHi) > 0 {
		fe := core.FeatureEnvelope{Lower: w.FeLo, Upper: w.FeHi}
		if !fe.Valid() {
			return nil, fmt.Errorf("index: shipped plan feature box malformed")
		}
		p.fe = fe
		p.hasFE = true
	}
	if len(w.CoarseLo) > 0 || len(w.CoarseHi) > 0 {
		cfe := core.FeatureEnvelope{Lower: w.CoarseLo, Upper: w.CoarseHi}
		if !cfe.Valid() {
			return nil, fmt.Errorf("index: shipped plan coarse box malformed")
		}
		p.cfe = cfe
		p.hasCFE = true
	}
	return p, nil
}
