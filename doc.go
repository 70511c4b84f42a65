// Package warping is a time-series similarity-search library with exact
// Dynamic Time Warping (DTW) indexing, built around the envelope-transform
// technique of Zhu & Shasha, "Warping Indexes with Envelope Transforms for
// Query by Humming" (SIGMOD 2003), together with a complete
// query-by-humming system built on top of it.
//
// # What it does
//
// Indexing time series under the Euclidean distance is well understood
// (GEMINI: reduce dimensionality with a lower-bounding transform, index the
// features). DTW breaks the recipe because the distance warps time. The
// paper's solution, implemented here:
//
//   - replace the query by its k-envelope (pointwise min/max over a
//     Sakoe-Chiba band of radius k);
//   - push the envelope through the dimensionality-reduction transform with
//     a container-invariant construction (Lemma 3: split each linear
//     coefficient by sign);
//   - the distance from a feature vector to the transformed envelope box
//     lower-bounds the true banded DTW distance (Theorem 1), so an R*-tree
//     range or kNN search over feature vectors never produces false
//     negatives.
//
// The package indexes with the paper's improved New_PAA (frame averages of
// the envelope; provably tighter than the prior Keogh_PAA's frame
// min/max). The internal core package carries Keogh_PAA, DFT, Haar-DWT and
// SVD through the same generic machinery, for the paper's comparisons.
//
// # Layout
//
// The root package is a facade re-exporting what its examples
// (example_test.go) show, and nothing else. The implementation lives in
// internal packages: ts (series kernel), dtw (distances and envelopes),
// core (the transforms), rtree (the index structure), index (the GEMINI
// DTW pipeline), and the query-by-humming stack (music, midi, audio, hum,
// contour, qbh).
//
// # Quick start
//
//	// Index 10,000 random walks of length 128 under banded DTW.
//	tr := warping.NewPAATransform(128, 8)
//	ix := warping.NewIndex(tr)
//	for i, s := range mySeries {
//	    _ = ix.Add(int64(i), warping.Normalize(s, 128))
//	}
//	matches, stats := ix.RangeQuery(warping.Normalize(q, 128), 10.0, 0.1)
//
// See example_test.go for runnable examples, cmd/experiments for the
// reproduction of every table and figure in the paper (EXPERIMENTS.md
// compares them with the paper's), and DESIGN.md for the system inventory.
package warping
