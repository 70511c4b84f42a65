package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"warping/internal/core"
	"warping/internal/store"
	"warping/internal/ts"
)

// persistFormat versions the gob payload; bump on incompatible change.
// Format 2 stores the series as one flat arena section (IDs + Flat + N)
// mirroring the in-memory columnar corpus; format 1 (per-series slices)
// is still read.
const persistFormat = 2

// SnapshotKind identifies an index snapshot container.
const SnapshotKind = "qbh/index"

const sectionIndex = "index"

// persisted is the gob payload. The R*-tree is not serialized — it is
// rebuilt deterministically from the series on load, which keeps the format
// small and immune to internal tree-layout changes.
type persisted struct {
	Format    int
	Transform core.Snapshot
	IDs       []int64
	// Series carries the per-series payload of format-1 snapshots (read
	// compatibility only; format 2 writes Flat instead).
	Series []ts.Series
	// Flat is the format-2 series arena: series i at Flat[i*N:(i+1)*N],
	// in IDs order. One gob allocation for the whole corpus on both ends.
	Flat []float64
	N    int
}

// flatten gob-encodes ids plus the matching arena block: ids are sorted so
// saving the same corpus always produces identical bytes, and the series
// go out as one flat []float64 in id order. In paged mode the series stream
// out of the buffer pool; a spill read failure fails the snapshot loudly
// (always nil in RAM mode).
func flattenCorpus(st *corpus) ([]int64, []float64, error) {
	ids := make([]int64, 0, st.len())
	for id := range st.slots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	flat := make([]float64, 0, len(ids)*st.n)
	r := st.reader()
	defer r.release()
	for _, id := range ids {
		x, err := r.series(int(st.slots[id]))
		if err != nil {
			return nil, nil, err
		}
		flat = append(flat, x...)
	}
	return ids, flat, nil
}

// entriesOf reconstructs bulk-load entries from a decoded payload,
// accepting both the flat format-2 arena and format-1 per-series slices.
func (p *persisted) entries() ([]Entry, error) {
	if p.Format >= 2 {
		if p.N <= 0 && len(p.IDs) > 0 {
			return nil, fmt.Errorf("index: corrupt payload: series length %d", p.N)
		}
		if len(p.IDs)*p.N != len(p.Flat) {
			return nil, fmt.Errorf("index: corrupt payload: %d ids x len %d, %d samples", len(p.IDs), p.N, len(p.Flat))
		}
		entries := make([]Entry, len(p.IDs))
		for i, id := range p.IDs {
			entries[i] = Entry{ID: id, Series: ts.Series(p.Flat[i*p.N : (i+1)*p.N])}
		}
		return entries, nil
	}
	if len(p.IDs) != len(p.Series) {
		return nil, fmt.Errorf("index: corrupt payload: %d ids, %d series", len(p.IDs), len(p.Series))
	}
	entries := make([]Entry, len(p.IDs))
	for i, id := range p.IDs {
		entries[i] = Entry{ID: id, Series: p.Series[i]}
	}
	return entries, nil
}

// Save writes the index to w: the transform (including fitted SVD
// matrices) and all stored series as a gob payload — the series as one
// flat arena section mirroring the in-memory layout — wrapped in a
// checksummed store container. The search tree is rebuilt on Load.
func (ix *Index) Save(w io.Writer) error {
	snap, err := core.SnapshotOf(ix.st.transform)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	p := persisted{Format: persistFormat, Transform: snap, N: ix.st.n}
	if p.IDs, p.Flat, err = flattenCorpus(&ix.st); err != nil {
		return fmt.Errorf("index: snapshotting corpus: %w", err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return fmt.Errorf("index: encoding: %w", err)
	}
	return store.WriteContainer(w, SnapshotKind, []store.Section{
		{Name: sectionIndex, Data: payload.Bytes()},
	})
}

// Load reads an index previously written by Save. The tree configuration of
// the reconstructed index comes from cfg (it is not part of the format).
// Corrupt, truncated or foreign input is rejected with the store package's
// typed errors before any gob decoding runs.
func Load(r io.Reader, cfg Config) (*Index, error) {
	kind, sections, err := store.ReadContainer(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading snapshot: %w", err)
	}
	if kind != SnapshotKind {
		return nil, fmt.Errorf("index: %w: got %q, want %q", store.ErrKind, kind, SnapshotKind)
	}
	var payload []byte
	for _, s := range sections {
		if s.Name == sectionIndex {
			payload = s.Data
		}
	}
	if payload == nil {
		return nil, fmt.Errorf("index: snapshot has no %q section", sectionIndex)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("index: decoding: %w", err)
	}
	if p.Format < 1 || p.Format > persistFormat {
		return nil, fmt.Errorf("index: unsupported format %d", p.Format)
	}
	entries, err := p.entries()
	if err != nil {
		return nil, err
	}
	tr, err := core.FromSnapshot(p.Transform)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	ix, err := BulkLoad(tr, cfg, entries)
	if err != nil {
		return nil, fmt.Errorf("index: rebuilding: %w", err)
	}
	return ix, nil
}
