package warping

import (
	"io"

	"warping/internal/dtw"
	"warping/internal/index"
	"warping/internal/kmedoids"
	"warping/internal/qbh"
	"warping/internal/spring"
	"warping/internal/subseq"
	"warping/internal/wav"
)

// --- Subsequence matching -----------------------------------------------------

// SubseqIndex is a subsequence DTW index: whole sequences are registered
// and a query matches any sliding-window position (Section 3.2's
// alternative to whole-phrase matching).
type SubseqIndex = subseq.Index

// SubseqMatch is one subsequence hit: sequence id, window offset, distance.
type SubseqMatch = subseq.Match

// SubseqConfig shapes the window decomposition of a SubseqIndex.
type SubseqConfig = subseq.Config

// NewSubseqIndex creates a subsequence index over windows of the given
// length (in original samples) with the given stride.
func NewSubseqIndex(t Transform, window, hop int) (*SubseqIndex, error) {
	return subseq.New(t, subseq.Config{Window: window, Hop: hop})
}

// IndexEntry is one (id, series) pair for BulkLoadIndex.
type IndexEntry = index.Entry

// BulkLoadIndex builds an index from a static collection in one pass:
// features are computed in parallel and the R*-tree is packed with
// Sort-Tile-Recursive bulk loading — faster to build and better clustered
// than repeated Add calls. The index remains fully dynamic afterwards.
func BulkLoadIndex(t Transform, entries []IndexEntry) (*Index, error) {
	return index.BulkLoad(t, index.Config{}, entries)
}

// --- Grid-file baseline ---------------------------------------------------------

// GridIndex is a DTW range-query baseline backed by a grid file instead of
// an R*-tree (insert and range search only). Size cells near the typical query extent: probe cost grows as
// (cells per dimension)^dim.
type GridIndex = index.GridIndex

// NewGridIndex creates a grid-file DTW index with the given feature-space
// cell edge length.
func NewGridIndex(t Transform, cellSize float64) *GridIndex {
	return index.NewGrid(t, cellSize)
}

// --- Persistence -----------------------------------------------------------------

// SaveIndex writes an index to w in a self-contained binary format
// (transform matrix + stored series; the tree is rebuilt on load).
func SaveIndex(ix *Index, w io.Writer) error { return ix.Save(w) }

// LoadIndex reads an index written by SaveIndex.
func LoadIndex(r io.Reader) (*Index, error) { return index.Load(r, index.Config{}) }

// SaveQBH writes a query-by-humming system (song database + options) to w.
func SaveQBH(sys *QBH, w io.Writer) error { return sys.Save(w) }

// LoadQBH reads and rebuilds a system written by SaveQBH.
func LoadQBH(r io.Reader) (*QBH, error) { return qbh.Load(r) }

// --- WAV audio -----------------------------------------------------------------

// EncodeWAV writes samples in [-1, 1] as a mono 16-bit PCM WAV file.
func EncodeWAV(w io.Writer, samples []float64, sampleRate int) error {
	return wav.Encode(w, samples, sampleRate)
}

// DecodeWAV reads a mono 16-bit PCM WAV file.
func DecodeWAV(data []byte) (samples []float64, sampleRate int, err error) {
	return wav.Decode(data)
}

// --- Subsequence query-by-humming ------------------------------------------------

// SubseqQBH is the alternative query-by-humming architecture of the
// paper's Section 3.2: whole songs indexed under multi-scale sliding
// windows, so a hum matches any position without phrase segmentation.
// More flexible than BuildQBH's phrase matching, but with a much larger
// candidate population.
type SubseqQBH = qbh.SubseqSystem

// SubseqSongMatch is one positional retrieval result.
type SubseqSongMatch = qbh.SubseqMatch

// BuildSubseqQBH constructs a subsequence-matching system over the songs.
func BuildSubseqQBH(songs []Song, opts QBHOptions) (*SubseqQBH, error) {
	return qbh.BuildSubseq(songs, opts)
}

// --- Clustering -------------------------------------------------------------------

// DTWDistanceMatrix computes the symmetric pairwise banded DTW distance
// matrix of equal-length series, parallelized across CPUs.
func DTWDistanceMatrix(series []Series, band int) [][]float64 {
	return dtw.DistanceMatrix(series, band)
}

// ClusterConfig controls DTW k-medoids clustering.
type ClusterConfig = kmedoids.Config

// Clustering is a k-medoids result: medoid indexes, per-series assignment
// and total cost.
type Clustering = kmedoids.Result

// KMedoids clusters equal-length series under banded DTW with PAM-style
// k-medoids. Medoids are actual members, sidestepping DTW averaging.
func KMedoids(series []Series, cfg ClusterConfig) (*Clustering, error) {
	return kmedoids.KMedoids(series, cfg)
}

// Silhouette scores a clustering in [-1, 1] (higher is better), the
// standard internal measure for choosing K.
func Silhouette(series []Series, res *Clustering, band int) float64 {
	return kmedoids.Silhouette(series, res, band)
}

// --- Streaming matching -------------------------------------------------------------

// StreamMatch is one match reported by a streaming monitor.
type StreamMatch = spring.Match

// StreamMonitor watches a live stream for subsequences within a DTW
// threshold of a query (the SPRING algorithm): O(len(query)) time and
// memory per arriving sample, with locally optimal non-overlapping matches.
type StreamMonitor = spring.Monitor

// NewStreamMonitor creates a monitor for the query with DTW threshold
// epsilon.
func NewStreamMonitor(query Series, epsilon float64) (*StreamMonitor, error) {
	return spring.NewMonitor(query, epsilon)
}

// ScanStream runs a streaming monitor over a whole series, returning every
// match — the offline convenience form.
func ScanStream(stream, query Series, epsilon float64) ([]StreamMatch, error) {
	return spring.Scan(stream, query, epsilon)
}
