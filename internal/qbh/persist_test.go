package qbh

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/store"
	"warping/internal/ts"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	songs := testSongs(71, 15)
	orig, err := Build(songs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSongs() != orig.NumSongs() || back.NumPhrases() != orig.NumPhrases() {
		t.Fatalf("shape: %d/%d vs %d/%d",
			back.NumSongs(), back.NumPhrases(), orig.NumSongs(), orig.NumPhrases())
	}
	// Identical queries must produce identical rankings.
	r := rand.New(rand.NewSource(72))
	singer := hum.GoodSinger()
	for trial := 0; trial < 5; trial++ {
		ph, _ := orig.PhraseByID(int64(trial * 3))
		q := hum.StripSilence(singer.RenderPitch(ph.Melody, r))
		a, _ := orig.Query(q, 5, 0.1)
		b, _ := back.Query(q, 5, 0.1)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].SongID != b[i].SongID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("garbage accepted")
	}
}

// Serializing the same system twice must yield byte-identical output, and
// a Save→Load→Save round trip must reproduce those bytes exactly — pinned
// so snapshots are diffable and dedupable.
func TestSaveDeterministic(t *testing.T) {
	sys, err := Build(testSongs(74, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := sys.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Saves of the same system differ")
	}
	back, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := back.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("Save after Load diverged from original bytes")
	}
}

// Truncated, bit-flipped and foreign payloads must surface the store
// package's typed errors, not raw gob decode failures.
func TestLoadTypedErrors(t *testing.T) {
	sys, err := Build(testSongs(75, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	var indexSnap bytes.Buffer
	if err := store.WriteContainer(&indexSnap, "qbh/index", []store.Section{{Name: "index"}}); err != nil {
		t.Fatal(err)
	}

	flip := func(i int) []byte {
		mut := bytes.Clone(good)
		mut[i] ^= 0x20
		return mut
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, store.ErrTruncated},
		{"truncated magic", good[:5], store.ErrTruncated},
		{"truncated header", good[:12], store.ErrTruncated},
		{"truncated mid payload", good[:len(good)/2], store.ErrTruncated},
		{"truncated last byte", good[:len(good)-1], store.ErrTruncated},
		{"bit flip in magic", flip(2), store.ErrBadMagic},
		{"bit flip in header", flip(9), store.ErrChecksum},
		{"bit flip in payload", flip(len(good) - 10), store.ErrChecksum},
		{"foreign bytes", []byte("MThd but actually a midi file, not a snapshot"), store.ErrBadMagic},
		{"foreign container kind", indexSnap.Bytes(), store.ErrKind},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// legacyOptions and legacyPersisted mirror the snapshot payload as older
// binaries wrote it: Options still carried a transform kind (always
// "new_paa" outside tests), a ScaleInvariant switch, an R*-tree
// configuration, a shard count, a Backend field (a string kind, possibly
// "grid" or "scan") and an AdaptiveBand switch.
type legacyOptions struct {
	NormalLen, Dim       int
	Transform            string
	PhraseMin, PhraseMax int
	ScaleInvariant       bool
	Tree                 legacyTreeConfig
	Shards               int
	Backend              string
	AdaptiveBand         bool
}

// legacyTreeConfig is the R*-tree configuration older payloads carried.
type legacyTreeConfig struct {
	MaxEntries, MinEntries, PageSize int
	DisableReinsert                  bool
}

type legacyPersisted struct {
	Format  int
	Options legacyOptions
	Songs   []music.Song
}

// TestLoadsSnapshotsThatNameABackend: a data directory written by an older
// binary keeps loading. gob drops the Shards, Backend and AdaptiveBand fields
// the payload still carries, whatever they say, and the system comes up on the
// R*-tree with the same songs, the same digest and the oracle's answers at
// the band the query asks for — through Load and through OpenDurable
// recovery.
func TestLoadsSnapshotsThatNameABackend(t *testing.T) {
	songs := testSongs(81, 12)
	want, err := Build(songs, Options{PhraseMin: 10, PhraseMax: 25})
	if err != nil {
		t.Fatal(err)
	}
	pitch := hum.GoodSinger().RenderPitch(songs[4].Melody, rand.New(rand.NewSource(82)))
	check := func(name string, got interface {
		NumSongs() int
		Digest() uint64
		QueryCtx(context.Context, ts.Series, int, float64, index.Limits) ([]SongMatch, index.QueryStats, error)
	}) {
		t.Helper()
		if got.NumSongs() != len(songs) || got.Digest() != want.Digest() {
			t.Fatalf("%s: %d songs digest %x, want %d songs digest %x", name, got.NumSongs(), got.Digest(), len(songs), want.Digest())
		}
		ranked, _, err := got.QueryCtx(context.Background(), pitch, 5, 0.1, index.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if oracle := oracleRanking(songs, want.opts, pitch, 5, 0.1); !sameRanking(ranked, oracle) {
			t.Fatalf("%s:\n got %v\nwant %v", name, ranked, oracle)
		}
	}
	for _, legacy := range []struct {
		backend      string
		adaptiveBand bool
	}{{"", false}, {"rtree", false}, {"grid", false}, {"", true}} {
		backend := fmt.Sprintf("%s, adaptive band %v", legacy.backend, legacy.adaptiveBand)
		var payload, snap bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(legacyPersisted{
			Format: persistFormat,
			Options: legacyOptions{NormalLen: 128, Dim: 8, Transform: "new_paa", PhraseMin: 10, PhraseMax: 25, Shards: 3,
				Backend: legacy.backend, AdaptiveBand: legacy.adaptiveBand},
			Songs: songs,
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.WriteContainer(&snap, SnapshotKind, []store.Section{{Name: sectionSystem, Data: payload.Bytes()}}); err != nil {
			t.Fatal(err)
		}

		sys, err := Load(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("backend %q: Load: %v", backend, err)
		}
		check(fmt.Sprintf("Load(backend %q)", backend), sys)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("backend %q: OpenDurable: %v", backend, err)
		}
		check(fmt.Sprintf("OpenDurable(backend %q)", backend), d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadsSnapshotsWrittenWithShards: a data directory written under -shards
// 4, with a non-zero Options.Tree, or by the last binary whose options named
// a transform kind and a ScaleInvariant switch ("parent", its full options
// as qbhd wrote them) opens as the one default index and answers as a fresh
// Build of the same songs does — song ids, Float64bits of the distances,
// phrase ordinals and order, over the full ranking — through Load, and
// through OpenDurable with WAL records behind the snapshot. gob skips the
// fields Options no longer has, so the format needs no bump.
func TestLoadsSnapshotsWrittenWithShards(t *testing.T) {
	songs := testSongs(83, 12)
	r := rand.New(rand.NewSource(84))
	pitches := make([]ts.Series, 4)
	for i := range pitches {
		pitches[i] = hum.GoodSinger().RenderPitch(songs[3*i].Melody, r)
	}
	parent := legacyOptions{NormalLen: 128, Dim: 8, Transform: "new_paa", PhraseMin: 10, PhraseMax: 25}
	sharded, tree := parent, parent
	sharded.Shards = 4
	tree.Tree = legacyTreeConfig{MaxEntries: 6, MinEntries: 2, DisableReinsert: true}
	for name, legacy := range map[string]legacyOptions{"parent": parent, "shards": sharded, "tree": tree} {
		t.Run(name, func(t *testing.T) {
			var payload, snap bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(legacyPersisted{Format: persistFormat, Options: legacy, Songs: songs}); err != nil {
				t.Fatal(err)
			}
			if err := store.WriteContainer(&snap, SnapshotKind, []store.Section{{Name: sectionSystem, Data: payload.Bytes()}}); err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(songs, Options{PhraseMin: 10, PhraseMax: 25})
			if err != nil {
				t.Fatal(err)
			}
			same := func(name string, got interface {
				NumSongs() int
				Query(ts.Series, int, float64) ([]SongMatch, index.QueryStats)
			}) {
				t.Helper()
				for i, pitch := range pitches {
					want, wst := fresh.Query(pitch, fresh.NumSongs(), 0.1)
					ranked, gst := got.Query(pitch, got.NumSongs(), 0.1)
					if len(ranked) != len(want) || len(want) != fresh.NumSongs() {
						t.Fatalf("%s hum %d: %d songs ranked, the fresh build ranks %d of %d", name, i, len(ranked), len(want), fresh.NumSongs())
					}
					for j := range want {
						g, w := ranked[j], want[j]
						if g.SongID != w.SongID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) || g.PhraseOrdinal != w.PhraseOrdinal {
							t.Fatalf("%s hum %d rank %d: %+v, the fresh build has %+v", name, i, j, g, w)
						}
					}
					// The same default tree: the same nodes visited.
					if gst.LogicalPages != wst.LogicalPages {
						t.Fatalf("%s hum %d: %d logical pages, the fresh build %d", name, i, gst.LogicalPages, wst.LogicalPages)
					}
				}
			}

			sys, err := Load(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			same("Load", sys)

			// The same snapshot as a data directory, uploads acknowledged into
			// the WAL behind it, then a crash: recovery is snapshot + WAL tail.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), snap.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, up := range testSongs(85, 3) {
				if _, err := d.AddSongTitled(up.Title, up.Melody); err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.AddSongTitled(up.Title, up.Melody); err != nil {
					t.Fatal(err)
				}
			}
			d.abandon()
			d, err = OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.NumSongs() != len(songs)+3 {
				t.Fatalf("recovered %d songs, want %d", d.NumSongs(), len(songs)+3)
			}
			same("OpenDurable", d)
		})
	}
}
