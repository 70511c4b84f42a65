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
// The package provides both envelope reductions for PAA — the paper's
// improved New_PAA (frame averages; provably tighter) and the prior
// Keogh_PAA (frame min/max) — plus DFT, Haar-DWT and SVD transforms through
// the same generic machinery.
//
// # Layout
//
// The root package is a facade re-exporting the stable API. The
// implementation lives in internal packages: ts (series kernel), dtw
// (distances and envelopes), core (the transforms), rtree (the index
// structure), index (the GEMINI DTW pipeline), and the
// query-by-humming stack (music, midi, audio, hum, contour, qbh).
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
// See examples/ for runnable programs, DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduction of every table and figure in the
// paper.
package warping
