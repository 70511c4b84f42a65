package warping

import (
	"io"

	"warping/internal/index"
	"warping/internal/qbh"
	"warping/internal/wav"
)

// --- Bulk loading ---------------------------------------------------------------

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
