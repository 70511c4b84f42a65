package qbh

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/store"
)

const persistFormat = 1

// SnapshotKind identifies a qbh system snapshot container.
const SnapshotKind = "qbh/system"

const sectionSystem = "system"

// persisted stores the inputs of Build rather than the built structures:
// construction is deterministic, so rebuilding on load reproduces the exact
// same system while keeping the format trivially small and stable.
type persisted struct {
	Format  int
	Options Options
	Songs   []music.Song
}

// Save writes the system's song database and configuration to w inside a
// checksummed store container, so Load can tell corruption, truncation and
// foreign files apart with typed errors. Output is deterministic: saving
// the same system twice yields byte-identical snapshots. Save is read-pure
// — it copies the song database under the metadata read lock and never
// touches the index — so it runs concurrently with queries and with
// AddSongs' index inserts.
func (s *System) Save(w io.Writer) error {
	p := persisted{Format: persistFormat, Options: s.opts}
	// The pager configuration is machine-local derived state (a spill
	// directory path, a pool size): a snapshot must stay loadable on any
	// machine and must not force — or forbid — out-of-core mode at load
	// time. Stripping it here also keeps snapshot bytes identical whether
	// or not the writer runs paged.
	p.Options.Pager = pager.Config{}
	s.mu.RLock()
	p.Songs = make([]music.Song, 0, len(s.songs))
	// Persist songs in id order for deterministic output bytes.
	maxID := int64(-1)
	for id := range s.songs {
		if id > maxID {
			maxID = id
		}
	}
	for id := int64(0); id <= maxID; id++ {
		if song, ok := s.songs[id]; ok {
			p.Songs = append(p.Songs, song)
		}
	}
	s.mu.RUnlock()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return fmt.Errorf("qbh: encoding: %w", err)
	}
	return store.WriteContainer(w, SnapshotKind, []store.Section{
		{Name: sectionSystem, Data: payload.Bytes()},
	})
}

// Load reads a system previously written by Save and rebuilds it, all in
// RAM. Corrupt, truncated or foreign input is rejected with the store
// package's typed errors (store.ErrBadMagic, store.ErrChecksum,
// store.ErrTruncated, store.ErrKind) before any gob decoding runs.
func Load(r io.Reader) (*System, error) { return loadWith(r, nil) }

// loadWith is Load with a pager configuration injected into the rebuild:
// snapshots never carry one (Save strips it), so out-of-core mode at
// recovery is always decided by the loading process — this is how
// OpenDurable threads DurableOptions.Pager into the snapshot path.
func loadWith(r io.Reader, pcfg *pager.Config) (*System, error) {
	p, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	if pcfg != nil {
		p.Options.Pager = *pcfg
	}
	return Build(p.Songs, p.Options)
}

// readSnapshot checks a snapshot's container and decodes its songs and
// options, building nothing.
func readSnapshot(r io.Reader) (persisted, error) {
	kind, sections, err := store.ReadContainer(r)
	if err != nil {
		return persisted{}, fmt.Errorf("qbh: reading snapshot: %w", err)
	}
	if kind != SnapshotKind {
		return persisted{}, fmt.Errorf("qbh: %w: got %q, want %q", store.ErrKind, kind, SnapshotKind)
	}
	var payload []byte
	for _, s := range sections {
		if s.Name == sectionSystem {
			payload = s.Data
		}
	}
	if payload == nil {
		return persisted{}, fmt.Errorf("qbh: snapshot has no %q section", sectionSystem)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return persisted{}, fmt.Errorf("qbh: decoding: %w", err)
	}
	if p.Format != persistFormat {
		return persisted{}, fmt.Errorf("qbh: unsupported format %d", p.Format)
	}
	return p, nil
}
