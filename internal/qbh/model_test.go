package qbh

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/store"
	"warping/internal/ts"
)

// The model-based test one level up: one op script is applied to a System in
// RAM and to a Durable paged through a small buffer pool, over a fault
// filesystem, and to a model — the live songs. After every op both agree
// with the model on the song set (count and digest), and every query answers
// as the oracle does: index.BruteForce over the live songs' phrases grouped
// by song, compared song, title, phrase ordinal and Float64bits of the
// distance, in order. Crashes, reopens at another pool size, a kill
// mid-write and a failed directory fsync all sit in the Durable's history.
// Songs are only ever added.

// A script is a two-byte rng seed followed by four-byte ops: an op code and
// its arguments a, b and c.
const (
	sysAdd      = iota // 1+a%8 generated songs of 20+b%40 notes
	sysAddMotif        // a song of one 8+a%8-note motif repeated 6+b%10 times: near-identical phrases crowd its ranking
	sysQuery           // Query(topK = 1+a%12, δ = b/100) at query c
	sysReopen          // the Durable closed (its last snapshot) and reopened; the RAM system saved and loaded
	sysResize          // the Durable crashed and reopened behind a pool of 8, 16 or 64 pages (a%3)
	sysKill            // the filesystem killed 64a+b%64 bytes on, 1+c%3 uploads tried, the Durable crashed and reopened
	sysDirSync         // a snapshot whose directory fsync fails, a crash, a reopen, a snapshot
	sysHostile         // a song Validate refuses (a%4 picks the fault) is uploaded to both, then a good one
	numSysOps
)

// Query kinds: the c argument of sysQuery, modulo 4; a kind past sqHummed
// is sqExact. Bit 2 picks the newest live song instead of a random one.
const (
	sqFresh  = iota // a generated melody
	sqExact         // a phrase of a live song, transposed and slowed: an exact match
	sqHummed        // a poor singer's hum of a phrase of a live song
	sqNewest = 4
)

// maxSysOps bounds what one fuzz input can cost.
const maxSysOps = 48

type sysOp [4]byte

func sysScript(seed uint16, ops ...sysOp) []byte {
	out := []byte{byte(seed >> 8), byte(seed)}
	for _, o := range ops {
		out = append(out, o[:]...)
	}
	return out
}

func queryOp(topK, deltaPct, kind byte) sysOp { return sysOp{sysQuery, topK - 1, deltaPct, kind} }

var (
	// Six songs and a motif song that crowds the phrase ranking, queried
	// with its own phrases, hummed and exact, for topK from 1 to past the
	// song count.
	songRankingScript = sysScript(7,
		sysOp{sysAdd, 5, 40}, sysOp{sysAddMotif, 7, 9},
		queryOp(1, 10, sqExact|sqNewest), queryOp(3, 10, sqHummed|sqNewest),
		queryOp(7, 10, sqHummed|sqNewest), queryOp(9, 10, sqExact|sqNewest),
		queryOp(3, 10, sqFresh), queryOp(2, 20, sqHummed))
	// Uploads, reopens, a resize and a kill mid-upload.
	durableChurnScript = sysScript(41,
		sysOp{sysAdd, 3, 10}, queryOp(3, 10, sqHummed), sysOp{sysReopen}, queryOp(2, 5, sqExact),
		sysOp{sysAdd, 1, 30}, sysOp{sysResize, 0}, queryOp(5, 10, sqHummed|sqNewest),
		sysOp{sysKill, 3, 7, 2}, queryOp(3, 10, sqFresh),
		sysOp{sysResize, 2}, queryOp(6, 15, sqExact), sysOp{sysAddMotif, 2, 3}, queryOp(2, 10, sqExact|sqNewest))
	// A kill lands at several depths of one upload's writes.
	killScript = sysScript(53, sysOp{sysAdd, 2, 5},
		sysOp{sysKill, 0, 0, 0}, sysOp{sysKill, 0, 9, 1}, sysOp{sysKill, 1, 2, 0}, sysOp{sysKill, 6, 0, 2},
		sysOp{sysKill, 40, 0, 1}, queryOp(4, 10, sqHummed|sqNewest))
	// Uploads sit in the WAL when a snapshot's directory fsync fails.
	dirSyncScript = sysScript(61, sysOp{sysAdd, 2, 20}, sysOp{sysReopen}, sysOp{sysAdd, 1, 15},
		sysOp{sysDirSync}, queryOp(3, 10, sqExact|sqNewest), sysOp{sysAdd, 0, 25}, sysOp{sysDirSync}, queryOp(4, 10, sqHummed))
	// Every kind of hostile song, around a reopen: each is refused whole.
	hostileScript = sysScript(71, sysOp{sysAdd, 2, 10}, sysOp{sysHostile, 0}, queryOp(3, 10, sqExact|sqNewest),
		sysOp{sysHostile, 1}, sysOp{sysReopen}, sysOp{sysHostile, 2}, sysOp{sysHostile, 3}, queryOp(4, 10, sqHummed|sqNewest))
)

// FuzzSystemModel applies arbitrary op scripts to a RAM System and a paged
// Durable against the model and the oracle; its seeds also run as named
// tests.
func FuzzSystemModel(f *testing.F) {
	for _, s := range [][]byte{songRankingScript, durableChurnScript, killScript, dirSyncScript, hostileScript} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSystemModel(t, data) })
}

func TestQueryMatchesBruteForceSongRanking(t *testing.T) { runSystemModel(t, songRankingScript) }
func TestDurableModelChurn(t *testing.T)                 { runSystemModel(t, durableChurnScript) }
func TestDurableModelKillMidUpload(t *testing.T)         { runSystemModel(t, killScript) }
func TestHostileSongRefused(t *testing.T)                { runSystemModel(t, hostileScript) }

// TestDurableSnapshotDirSyncFailure pins the snapshot whose last step,
// WriteFileAtomic's directory fsync, fails: the rename is done but the epoch
// is not bumped and the WAL is not reset. Snapshot must return the error and
// the WAL keep its records; a reopen on a healthy filesystem holds every
// acknowledged song exactly once; the next Snapshot succeeds and resets the
// WAL.
func TestDurableSnapshotDirSyncFailure(t *testing.T) { runSystemModel(t, dirSyncScript) }

type systemModel struct {
	t      testing.TB
	r      *rand.Rand
	dir    string
	ffs    *store.FaultFS
	pool   int
	ram    *System
	dur    *Durable
	live   map[int64]music.Song
	titles int
	step   string
}

func runSystemModel(t testing.TB, data []byte) {
	if len(data) < 2 {
		return
	}
	m := &systemModel{
		t:    t,
		r:    rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[1]))),
		dir:  t.TempDir(),
		pool: 8,
		live: make(map[int64]music.Song),
	}
	var err error
	if m.ram, err = Build(nil, durableOpts); err != nil {
		t.Fatal(err)
	}
	m.open()
	defer func() {
		if err := m.dur.Close(); err != nil {
			t.Errorf("closing the durable: %v", err)
		}
		_ = m.ram.Close()
	}()
	ops := data[2:]
	for i := 0; i+4 <= len(ops) && i < 4*maxSysOps; i += 4 {
		o := sysOp(ops[i : i+4])
		m.step = fmt.Sprintf("op %d %v", i/4, o)
		m.apply(o[0]%numSysOps, o[1], o[2], o[3])
		if !reflect.DeepEqual(m.ram.Songs(), m.songs()) || m.dur.Digest() != m.ram.Digest() {
			t.Fatalf("%s: ram holds %d songs, the durable %d (digests %x, %x), the model %d",
				m.step, m.ram.NumSongs(), m.dur.NumSongs(), m.ram.Digest(), m.dur.Digest(), len(m.live))
		}
		if want := digestOf(m.songs()); m.ram.Digest() != want {
			t.Fatalf("%s: the kept digest %x, recomputed from the songs %x", m.step, m.ram.Digest(), want)
		}
	}
}

// open opens the Durable over a fresh fault filesystem behind the current
// pool size; the first open builds the empty database.
func (m *systemModel) open() {
	m.ffs = store.NewFaultFS(store.OS())
	opts := pagedTestOptions(m.ffs, m.dir, nil)
	opts.Pager.PoolPages = m.pool
	var err error
	if m.dur, err = OpenDurable(m.dir, opts); err != nil {
		m.t.Fatalf("%s: OpenDurable: %v", m.step, err)
	}
}

// crash abandons the Durable without a final snapshot, then reopens it.
func (m *systemModel) crash() {
	m.dur.abandon()
	_ = m.dur.sys.Close()
	m.open()
}

func (m *systemModel) apply(code, a, b, c byte) {
	switch code {
	case sysAdd:
		for range 1 + int(a)%8 {
			m.add(music.GenerateMelody(m.r, 20+int(b)%40))
		}
	case sysAddMotif:
		motif := music.GenerateMelody(m.r, 8+int(a)%8)
		var melody music.Melody
		for range 6 + int(b)%10 {
			melody = append(melody, motif...)
		}
		m.add(melody)
	case sysQuery:
		m.query(1+int(a)%12, float64(b%21)/100, m.queryOf(c))
	case sysReopen:
		if err := m.dur.Close(); err != nil {
			m.t.Fatalf("%s: Close: %v", m.step, err)
		}
		m.open()
		var buf bytes.Buffer
		if err := m.ram.Save(&buf); err != nil {
			m.t.Fatalf("%s: Save: %v", m.step, err)
		}
		_ = m.ram.Close()
		var err error
		if m.ram, err = loadWith(&buf, nil); err != nil {
			m.t.Fatalf("%s: Load: %v", m.step, err)
		}
	case sysResize:
		m.pool = []int{8, 16, 64}[a%3]
		m.crash()
	case sysKill:
		m.kill(int64(a)*64+int64(b%64), 1+int(c)%3)
	case sysDirSync:
		m.dirSyncFailure()
	case sysHostile:
		m.hostile(a)
	}
}

// hostile uploads a song Validate refuses to both — one note held 2^30
// ticks (a division-1 MIDI note of 2^28), notes of 2^62 ticks whose sum
// overflows, one tick past the song cap, or a pitch past MIDI's — and
// checks that nothing changed: songs, digest, arrival order, phrases. Then
// the next song lands.
func (m *systemModel) hostile(a byte) {
	melody := music.GenerateMelody(m.r, 20)
	switch a % 4 {
	case 0:
		melody[3].Duration = 1 << 30
	case 1:
		melody = music.Melody{{Pitch: 60, Duration: 1 << 62}, {Pitch: 62, Duration: 1 << 62}}
	case 2:
		melody = nil
		for range music.MaxMelodyDuration/music.MaxNoteDuration + 1 {
			melody = append(melody, music.Note{Pitch: 60, Duration: music.MaxNoteDuration})
		}
	case 3:
		melody[7].Pitch = 128
	}
	title := m.title()
	for _, c := range []struct {
		name string
		s    *System
		add  func(string, music.Melody) (music.Song, error)
	}{{"ram", m.ram, m.ram.AddSongTitled}, {"durable", m.dur.sys, m.dur.AddSongTitled}} {
		digest, order, phrases := c.s.Digest(), slices.Clone(c.s.order), c.s.NumPhrases()
		if _, err := c.add(title, melody); err == nil {
			m.t.Fatalf("%s: %s: a hostile song (fault %d) was accepted", m.step, c.name, a%4)
		}
		if c.s.Digest() != digest || !slices.Equal(c.s.order, order) || c.s.NumPhrases() != phrases || indexLen(c.s.Index()) != phrases {
			m.t.Fatalf("%s: %s: the refused song changed the database", m.step, c.name)
		}
	}
	m.add(music.GenerateMelody(m.r, 25))
}

func (m *systemModel) title() string {
	m.titles++
	return fmt.Sprintf("song %d", m.titles)
}

// add uploads one song to both and records it.
func (m *systemModel) add(melody music.Melody) {
	title := m.title()
	want, err := m.ram.AddSongTitled(title, melody)
	if err != nil {
		m.t.Fatalf("%s: ram: AddSongTitled: %v", m.step, err)
	}
	got, err := m.dur.AddSongTitled(title, melody)
	if err != nil || got.ID != want.ID {
		m.t.Fatalf("%s: durable: AddSongTitled = id %d, %v; ram allocated %d", m.step, got.ID, err, want.ID)
	}
	m.live[want.ID] = want
}

// kill arms a kill budget bytes of writes away and tries n uploads. The
// acknowledged ones must survive the crash; the one that failed may or may
// not, and the model follows what recovery found.
func (m *systemModel) kill(budget int64, n int) {
	m.ffs.KillAfterBytes(budget)
	var title string
	var melody music.Melody
	failed := false
	for range n {
		title, melody = m.title(), music.GenerateMelody(m.r, 25)
		song, err := m.dur.AddSongTitled(title, melody)
		if err != nil {
			failed = true
			break
		}
		if err := m.ram.AddSong(song); err != nil {
			m.t.Fatalf("%s: ram: AddSong(%d): %v", m.step, song.ID, err)
		}
		m.live[song.ID] = song
	}
	m.crash()
	if failed && m.dur.NumSongs() > len(m.live) {
		song, err := m.ram.AddSongTitled(title, melody)
		if err != nil {
			m.t.Fatalf("%s: ram: AddSongTitled: %v", m.step, err)
		}
		m.live[song.ID] = song
	}
}

// dirSyncFailure fails a snapshot at its directory fsync, then crashes and
// reopens on a healthy filesystem.
func (m *systemModel) dirSyncFailure() {
	wal := m.dur.DurabilityStats().WALRecords
	m.ffs.FailDirSyncs(errors.New("directory fsync failed"))
	if err := m.dur.Snapshot(); err == nil {
		m.t.Fatalf("%s: Snapshot succeeded with failing directory fsyncs", m.step)
	}
	if got := m.dur.DurabilityStats().WALRecords; got != wal {
		m.t.Fatalf("%s: the failed snapshot left %d WAL records of %d", m.step, got, wal)
	}
	m.ffs.FailDirSyncs(nil)
	m.crash()
	phrases := 0
	for _, song := range m.live {
		phrases += len(music.SegmentPhrases(song.Melody, durableOpts.PhraseMin, durableOpts.PhraseMax))
	}
	if got := indexLen(m.dur.sys.Index()); got != phrases {
		m.t.Fatalf("%s: recovery indexed %d phrases, the live songs have %d", m.step, got, phrases)
	}
	if err := m.dur.Snapshot(); err != nil {
		m.t.Fatalf("%s: the snapshot after recovery: %v", m.step, err)
	}
	if got := m.dur.DurabilityStats().WALRecords; got != 0 {
		m.t.Fatalf("%s: the snapshot after recovery left %d WAL records", m.step, got)
	}
}

// songs returns the live songs in id order.
func (m *systemModel) songs() []music.Song {
	out := make([]music.Song, 0, len(m.live))
	for _, s := range m.live {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b music.Song) int { return int(a.ID - b.ID) })
	return out
}

func (m *systemModel) queryOf(c byte) ts.Series {
	songs := m.songs()
	if c%4 == sqFresh || len(songs) == 0 {
		return music.GenerateMelody(m.r, 18).TimeSeries()
	}
	song := songs[len(songs)-1]
	if c&sqNewest == 0 {
		song = songs[m.r.Intn(len(songs))]
	}
	phrases := music.SegmentPhrases(song.Melody, durableOpts.PhraseMin, durableOpts.PhraseMax)
	phrase := phrases[m.r.Intn(len(phrases))]
	if c%4 == sqHummed {
		return hum.StripSilence(hum.PoorSinger().RenderPitch(phrase, m.r))
	}
	return phrase.Transpose(5).ScaleTempo(2).TimeSeries()
}

func (m *systemModel) query(topK int, delta float64, pitch ts.Series) {
	want := oracleRanking(m.songs(), durableOpts, pitch, topK, delta)
	for name, s := range map[string]reader{"ram": m.ram, "durable": m.dur} {
		got, st, err := s.QueryCtx(context.Background(), pitch, topK, delta, index.Limits{})
		if err != nil || st.Degraded {
			m.t.Fatalf("%s: %s: err %v, degraded %v", m.step, name, err, st.Degraded)
		}
		if !sameRanking(got, want) {
			m.t.Fatalf("%s: %s (topK=%d δ=%g):\n got %+v\nwant %+v", m.step, name, topK, delta, got, want)
		}
	}
}

// oracleRanking is the ranked retrieval index.BruteForce defines over songs
// segmented and normalized under o: phrases grouped by song, the best phrase
// of each (the lower ordinal on a tie, as the lower phrase id), songs by
// (distance, song id), the first topK.
func oracleRanking(songs []music.Song, o Options, pitch ts.Series, topK int, delta float64) []SongMatch {
	o.fill()
	type phrase struct {
		song music.Song
		ord  int
	}
	var entries []index.Entry
	var of []phrase
	for _, song := range songs {
		for ord, ph := range music.SegmentPhrases(song.Melody, o.PhraseMin, o.PhraseMax) {
			entries = append(entries, index.Entry{ID: int64(len(entries)), Series: ph.TimeSeries().NormalForm(o.NormalLen)})
			of = append(of, phrase{song, ord})
		}
	}
	bySong := func(id int64) int64 { return of[id].song.ID }
	matches := index.BruteForce(entries, pitch.NormalForm(o.NormalLen), delta, topK, bySong)
	out := make([]SongMatch, len(matches))
	for i, mt := range matches {
		p := of[mt.ID]
		out[i] = SongMatch{SongID: p.song.ID, Title: p.song.Title, Dist: mt.Dist, PhraseOrdinal: p.ord}
	}
	return out
}

// sameRanking reports whether got is want bit for bit.
func sameRanking(got, want []SongMatch) bool {
	return slices.EqualFunc(got, want, func(g, w SongMatch) bool {
		return g.SongID == w.SongID && g.Title == w.Title && g.PhraseOrdinal == w.PhraseOrdinal &&
			math.Float64bits(g.Dist) == math.Float64bits(w.Dist)
	})
}

// digestOf recomputes Digest from scratch: songHash summed over songs.
func digestOf(songs []music.Song) uint64 {
	var sum uint64
	for _, s := range songs {
		sum += songHash(s)
	}
	return sum
}

// The digest names the song set, not the order the songs arrived in, and
// one changed note changes it.
func TestDigest(t *testing.T) {
	songs := music.GenerateSongs(5, 40, 20, 60)
	build := func(songs []music.Song) *System {
		t.Helper()
		s, err := Build(songs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	forward := build(songs)
	reversed := slices.Clone(songs)
	slices.Reverse(reversed)
	backward := build(reversed[:len(reversed)/2])
	for _, song := range reversed[len(reversed)/2:] {
		if err := backward.AddSong(song); err != nil {
			t.Fatal(err)
		}
	}
	if forward.Digest() != backward.Digest() || forward.Digest() != digestOf(songs) {
		t.Fatalf("digests %x (built in order), %x (built and added in reverse), %x (recomputed)", forward.Digest(), backward.Digest(), digestOf(songs))
	}
	changed := slices.Clone(songs)
	changed[17].Melody = slices.Clone(changed[17].Melody)
	changed[17].Melody[9].Pitch++
	if build(changed).Digest() == forward.Digest() {
		t.Fatal("one changed note left the digest unchanged")
	}
}

// indexLen counts the series ix holds, through Visit.
func indexLen(ix *index.Index) int {
	n := 0
	ix.Visit(func(int64, ts.Series) { n++ })
	return n
}
