package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"

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

// ShardedSnapshotKind identifies a sharded-index snapshot container.
const ShardedSnapshotKind = "qbh/sharded-index"

const sectionShardedMeta = "meta"

// shardedMeta is the gob payload of the meta section: everything needed
// to reconstruct the empty shards before the per-shard sections stream in.
type shardedMeta struct {
	Format    int
	Backend   BackendKind
	Shards    int
	SeriesLen int
	Transform core.Snapshot
	// HasTransform distinguishes a transform-less scan backend.
	HasTransform bool
}

// shardPayload is the gob payload of one per-shard section. Format 2
// writes the shard's series as one flat arena (Flat, N); Series carries
// format-1 payloads for read compatibility.
type shardPayload struct {
	IDs    []int64
	Series []ts.Series
	Flat   []float64
	N      int
}

// Save writes the sharded index to w as one checksummed container with a
// meta section plus one section per shard ("shard-0", "shard-1", ...).
// Shards are gob-encoded in parallel; ids within a shard are sorted, so
// saving the same corpus always produces identical bytes. Save holds each
// shard's read lock only while copying that shard out, so queries (and
// writes to other shards) keep flowing during a snapshot.
func (sh *Sharded) Save(w io.Writer) error {
	meta := shardedMeta{
		Format:    persistFormat,
		Backend:   sh.kind,
		Shards:    len(sh.shards),
		SeriesLen: sh.SeriesLen(),
	}
	if tr := transformOf(sh.shards[0].s); tr != nil {
		snap, err := core.SnapshotOf(tr)
		if err != nil {
			return fmt.Errorf("index: %w", err)
		}
		meta.Transform = snap
		meta.HasTransform = true
	}
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(meta); err != nil {
		return fmt.Errorf("index: encoding meta: %w", err)
	}
	sections := make([]store.Section, 1+len(sh.shards))
	sections[0] = store.Section{Name: sectionShardedMeta, Data: metaBuf.Bytes()}

	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sh.shards[i]
			var p shardPayload
			s.mu.RLock()
			verr := corpusOf(s.s).visitErr(func(id int64, x ts.Series) {
				p.IDs = append(p.IDs, id)
				p.Series = append(p.Series, x)
			})
			s.mu.RUnlock()
			if verr != nil {
				errs[i] = fmt.Errorf("index: snapshotting shard %d: %w", i, verr)
				return
			}
			// Sort by id for deterministic bytes, then flatten the series
			// into one arena block (format 2); the per-series views held
			// here stay value-correct after the unlock because arena
			// generations are never mutated in place (and paged visits hand
			// out copies).
			sort.Sort(&shardSorter{p: &p})
			p.N = meta.SeriesLen
			p.Flat = make([]float64, 0, len(p.IDs)*p.N)
			for _, x := range p.Series {
				p.Flat = append(p.Flat, x...)
			}
			p.Series = nil
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(p); err != nil {
				errs[i] = fmt.Errorf("index: encoding shard %d: %w", i, err)
				return
			}
			sections[1+i] = store.Section{Name: fmt.Sprintf("shard-%d", i), Data: buf.Bytes()}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return store.WriteContainer(w, ShardedSnapshotKind, sections)
}

// shardSorter sorts a shardPayload's parallel IDs/Series slices by id.
type shardSorter struct{ p *shardPayload }

func (s *shardSorter) Len() int           { return len(s.p.IDs) }
func (s *shardSorter) Less(i, j int) bool { return s.p.IDs[i] < s.p.IDs[j] }
func (s *shardSorter) Swap(i, j int) {
	s.p.IDs[i], s.p.IDs[j] = s.p.IDs[j], s.p.IDs[i]
	s.p.Series[i], s.p.Series[j] = s.p.Series[j], s.p.Series[i]
}

// LoadSharded reads a sharded index previously written by Sharded.Save,
// rebuilding the shards in parallel. The backend configuration comes from
// cfg (it is not part of the format beyond the backend kind).
func LoadSharded(r io.Reader, cfg Config) (*Sharded, error) {
	kind, sections, err := store.ReadContainer(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading sharded snapshot: %w", err)
	}
	if kind != ShardedSnapshotKind {
		return nil, fmt.Errorf("index: %w: got %q, want %q", store.ErrKind, kind, ShardedSnapshotKind)
	}
	byName := make(map[string][]byte, len(sections))
	for _, s := range sections {
		byName[s.Name] = s.Data
	}
	metaData, ok := byName[sectionShardedMeta]
	if !ok {
		return nil, fmt.Errorf("index: sharded snapshot has no %q section", sectionShardedMeta)
	}
	var meta shardedMeta
	if err := gob.NewDecoder(bytes.NewReader(metaData)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("index: decoding meta: %w", err)
	}
	if meta.Format < 1 || meta.Format > persistFormat {
		return nil, fmt.Errorf("index: unsupported format %d", meta.Format)
	}
	if meta.Shards < 1 {
		return nil, fmt.Errorf("index: corrupt meta: %d shards", meta.Shards)
	}
	var sh *Sharded
	if meta.HasTransform {
		tr, err := core.FromSnapshot(meta.Transform)
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		sh, err = NewSharded(meta.Backend, tr, cfg, meta.Shards)
		if err != nil {
			return nil, err
		}
	} else {
		if meta.Backend != BackendScan {
			return nil, fmt.Errorf("index: backend %q snapshot has no transform", meta.Backend)
		}
		sh = &Sharded{kind: BackendScan, shards: make([]*shard, meta.Shards)}
		for i := range sh.shards {
			sh.shards[i] = &shard{s: NewLinearScan(meta.SeriesLen, true)}
		}
	}
	errs := make([]error, meta.Shards)
	var wg sync.WaitGroup
	for i := 0; i < meta.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, ok := byName[fmt.Sprintf("shard-%d", i)]
			if !ok {
				errs[i] = fmt.Errorf("index: sharded snapshot missing shard %d", i)
				return
			}
			var p shardPayload
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
				errs[i] = fmt.Errorf("index: decoding shard %d: %w", i, err)
				return
			}
			if meta.Format >= 2 {
				if p.N <= 0 && len(p.IDs) > 0 {
					errs[i] = fmt.Errorf("index: corrupt shard %d: series length %d", i, p.N)
					return
				}
				if len(p.IDs)*p.N != len(p.Flat) {
					errs[i] = fmt.Errorf("index: corrupt shard %d: %d ids x len %d, %d samples", i, len(p.IDs), p.N, len(p.Flat))
					return
				}
				p.Series = make([]ts.Series, len(p.IDs))
				for j := range p.IDs {
					p.Series[j] = ts.Series(p.Flat[j*p.N : (j+1)*p.N])
				}
			} else if len(p.IDs) != len(p.Series) {
				errs[i] = fmt.Errorf("index: corrupt shard %d: %d ids, %d series", i, len(p.IDs), len(p.Series))
				return
			}
			s := sh.shards[i]
			for j, id := range p.IDs {
				if sh.shardOf(id) != i {
					errs[i] = fmt.Errorf("index: corrupt shard %d: id %d belongs to shard %d", i, id, sh.shardOf(id))
					return
				}
				if err := s.s.Add(id, p.Series[j]); err != nil {
					errs[i] = fmt.Errorf("index: rebuilding shard %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sh, nil
}
