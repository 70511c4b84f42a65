package qbh

import (
	"fmt"
	"io"

	"warping/internal/music"
	"warping/internal/pager"
)

// snapshot returns the system's song database and configuration as a
// snapshot run (record.go): the inputs of Build rather than the built
// structures, since construction is deterministic. Songs are written in the
// order they were added, which Load restores, so a snapshot keeps every
// replication position, and the same system always yields the same bytes.
// It is read-pure — it copies the song database under the metadata read
// lock and never touches the index — so it runs concurrently with queries
// and with AddSongs' index inserts. The pager configuration is not in it:
// that is machine-local derived state (a spill directory, a pool size), and
// a snapshot must stay loadable on any machine, in or out of core.
func (s *System) snapshot() []byte {
	s.mu.RLock()
	songs := make([]music.Song, 0, len(s.order))
	for _, id := range s.order {
		songs = append(songs, s.songs[id])
	}
	s.mu.RUnlock()
	return appendRun(nil, runSnapshot, s.opts, songs)
}

// loadWith reads a snapshot run (System.snapshot, as in a durable
// directory's snapshot.qbh) and rebuilds the system, in RAM when pcfg is
// nil and out-of-core in pcfg's page space otherwise. Snapshots never carry
// a pager configuration, so out-of-core mode at recovery is always decided
// by the loading process: this is how OpenDurable threads
// DurableOptions.Pager into the snapshot path. Corrupt, truncated, foreign
// or older-format input is refused with typed errors (see decodeRun) before
// anything is built.
func loadWith(r io.Reader, pcfg *pager.Config) (*System, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("qbh: reading snapshot: %w", err)
	}
	opts, songs, err := decodeRun(b, runSnapshot)
	if err != nil {
		return nil, fmt.Errorf("qbh: decoding snapshot: %w", err)
	}
	if pcfg != nil {
		opts.Pager = *pcfg
	}
	return Build(songs, opts)
}
