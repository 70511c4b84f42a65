package warping

import (
	"io"

	"warping/internal/index"
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

// --- WAV audio -----------------------------------------------------------------

// EncodeWAV writes samples in [-1, 1] as a mono 16-bit PCM WAV file.
func EncodeWAV(w io.Writer, samples []float64, sampleRate int) error {
	return wav.Encode(w, samples, sampleRate)
}

// DecodeWAV reads a mono 16-bit PCM WAV file.
func DecodeWAV(data []byte) (samples []float64, sampleRate int, err error) {
	return wav.Decode(data)
}
