// Package eval provides the retrieval-quality metrics used to summarize
// ranking experiments: mean reciprocal rank, top-k accuracy, and mean rank.
// Ranks are 1-based; rank 0 means "not retrieved" and is scored as a miss
// (reciprocal rank 0, rank excluded from the mean-rank denominator).
package eval

// MRR returns the mean reciprocal rank of the 1-based ranks.
func MRR(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var sum float64
	for _, r := range ranks {
		if r > 0 {
			sum += 1 / float64(r)
		}
	}
	return sum / float64(len(ranks))
}

// TopK returns the fraction of ranks that are <= k (and > 0).
func TopK(ranks []int, k int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var hits int
	for _, r := range ranks {
		if r > 0 && r <= k {
			hits++
		}
	}
	return float64(hits) / float64(len(ranks))
}
