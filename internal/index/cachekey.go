// Result-cache keys: a compact, deterministic identity for a query plan,
// quantized so near-identical hums of the same melody collapse onto one
// key. Two queries share a key exactly when they agree on band radius,
// result size and every feature-envelope coordinate rounded to the
// quantization step — by construction the cache then serves one
// representative's verified result set for the whole equivalence class
// (that is the point: hot QBH traffic is thousands of near-identical
// contours of the same trending song). The key is a pure function of the
// plan, so the replicas of a group, which derive the same plan from the
// same forwarded hum, agree on hits.
package index

import (
	"math"
	"strconv"
)

// CacheKeyQuantum is the feature-space rounding step of CacheKey. Feature
// coordinates are sums of semitone values over envelope segments; half a
// semitone absorbs pitch-tracking jitter between two hums of the same
// phrase without conflating genuinely different contours.
const CacheKeyQuantum = 0.5

// CacheKey returns the quantized identity of this Index plan for a kNN query
// of the given result size.
func (p *Plan) CacheKey(topK int) string {
	b := make([]byte, 0, 16+18*2*len(p.fe.Lower))
	b = append(b, 'k')
	b = strconv.AppendInt(b, int64(topK), 10)
	b = append(b, '|', 'b')
	b = strconv.AppendInt(b, int64(p.band), 10)
	b = append(b, '|', 'f')
	for _, bound := range [][]float64{p.fe.Lower, p.fe.Upper} {
		for _, v := range bound {
			b = strconv.AppendInt(b, int64(math.Round(v/CacheKeyQuantum)), 10)
			b = append(b, ',')
		}
	}
	return string(b)
}
