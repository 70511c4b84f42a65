package main

// sut.go is the benchmark's whole contact surface with the system under
// test. Every import of a repo package and every qbhd flag the benchmark
// relies on lives in this file, so a refactor of the program knows exactly
// which names a benchmark-only follow-up has to track:
//
//	qbhd flags: -addr -mididir -data -pool-pages -result-cache-bytes -snapshot-interval
//	endpoints:  GET /readyz /stats /songs, POST /query /query/pitch /songs
//
// Everything else in bench/ speaks HTTP to the child process or calls the
// thin wrappers below.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"warping/internal/audio"
	"warping/internal/core"
	"warping/internal/dtw"
	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/qbh"
	"warping/internal/rtree"
	"warping/internal/store"
	"warping/internal/ts"
	"warping/internal/wav"
)

// qbhdPackage is what `go build` compiles into the child binary.
const qbhdPackage = "./cmd/qbhd"

// Query parameters every request uses; the twin and the oracle mirror them.
const (
	topK       = 5
	queryDelta = 0.1
)

// Mirrors of the options cmd/qbhd builds its database with and of the
// qbh.Options defaults behind them (normal form 128, New_PAA to 8 dims).
const (
	phraseMin = 10
	phraseMax = 25
	normalLen = 128
	featDim   = 8
)

// serverFlags is the qbhd configuration of one workload.
type serverFlags struct {
	data             bool // durable -data directory
	poolPages        int
	resultCacheBytes int64
	snapshotInterval time.Duration
}

// qbhdArgs renders the child's command line. dataDir is ignored unless the
// workload is durable.
func qbhdArgs(addr, midiDir, dataDir string, f serverFlags) []string {
	args := []string{"-addr", addr, "-mididir", midiDir}
	if f.data {
		args = append(args, "-data", dataDir)
	}
	if f.poolPages > 0 {
		args = append(args, "-pool-pages", fmt.Sprint(f.poolPages))
	}
	if f.resultCacheBytes > 0 {
		args = append(args, "-result-cache-bytes", fmt.Sprint(f.resultCacheBytes))
	}
	if f.snapshotInterval > 0 {
		args = append(args, "-snapshot-interval", f.snapshotInterval.String())
	}
	return args
}

// Wire shapes of the JSON the child answers with (internal/server).
type (
	matchJSON struct {
		SongID int64   `json:"song_id"`
		Dist   float64 `json:"dist"`
	}
	queryJSON struct {
		Matches         []matchJSON `json:"matches"`
		VoicedFrames    int         `json:"voiced_frames"`
		Candidates      int         `json:"candidates"`
		CoarseSurvivors int         `json:"coarse_survivors"`
		KeoghSurvivors  int         `json:"keogh_survivors"`
		LBSurvivors     int         `json:"lb_survivors"`
		ExactDTW        int         `json:"exact_dtw"`
		LogicalPages    int         `json:"logical_pages"`
		PageAccesses    int         `json:"page_accesses"`
		Degraded        bool        `json:"degraded"`
		Cached          bool        `json:"cached"`
	}
	songJSON struct {
		ID int64 `json:"id"`
	}
	statsJSON struct {
		Songs      int `json:"songs"`
		BufferPool struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Evictions uint64 `json:"evictions"`
		} `json:"buffer_pool"`
		ResultCache struct {
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
			Invalidations int64 `json:"invalidations"`
		} `json:"result_cache"`
		Durability struct {
			SnapshotBytes int64 `json:"snapshot_bytes"`
			Snapshots     int64 `json:"snapshots"`
			WALSyncs      int64 `json:"wal_syncs"`
		} `json:"durability"`
	}
)

// ---- input generation ----------------------------------------------------

type melody = music.Melody

// genCorpus returns n generated songs as the MIDI bytes qbhd will read and
// the melodies decoded back from those very bytes (what the program indexes).
func genCorpus(seed int64, n int) (midis [][]byte, melodies []melody, err error) {
	for _, s := range music.GenerateSongs(seed, n, 200, 400) {
		b, err := midi.EncodeMelody(s.Melody, 500000)
		if err != nil {
			return nil, nil, err
		}
		m, err := midi.DecodeMelody(b)
		if err != nil {
			return nil, nil, err
		}
		midis, melodies = append(midis, b), append(melodies, m)
	}
	return midis, melodies, nil
}

func segmentPhrases(m melody) []melody { return music.SegmentPhrases(m, phraseMin, phraseMax) }

// renderContour is a good singer's frame-level pitch contour of m with the
// silent frames dropped: what a client with its own tracker posts to
// /query/pitch.
func renderContour(m melody, r *rand.Rand) []float64 {
	return hum.StripSilence(hum.GoodSinger().RenderPitch(m, r))
}

// humSeconds is how long the singer takes over m with the draws r has in
// store, breaths included. Rendering the audio afterwards from an RNG in
// the same state gives a recording of exactly this length.
func humSeconds(m melody, r *rand.Rand) float64 {
	return float64(len(hum.GoodSinger().RenderPitch(m, r))) * audio.FrameMs / 1000
}

// renderWAV is the same singer rendered to audio: what a client posts to
// /query.
func renderWAV(m melody, r *rand.Rand) ([]byte, error) {
	var buf bytes.Buffer
	err := wav.Encode(&buf, hum.GoodSinger().RenderAudio(m, r), audio.DefaultSampleRate)
	return buf.Bytes(), err
}

func decodeWAV(b []byte) ([]float64, int, error) { return wav.Decode(b) }

// trackPitch is the server's audio front end after decoding.
func trackPitch(samples []float64, rate int) []float64 {
	return hum.StripSilence(audio.TrackPitch(samples, rate))
}

func decodeMIDI(b []byte) (melody, error) { return midi.DecodeMelody(b) }

// decodePitchBody is what the /query/pitch handler does to its body before
// it queries.
func decodePitchBody(b []byte) ([]float64, error) {
	var pitch []float64
	if err := json.Unmarshal(b, &pitch); err != nil {
		return nil, err
	}
	return hum.StripSilence(pitch), nil
}

// ---- the in-process twin -------------------------------------------------

// twin is an in-process copy of the database qbhd builds from the same
// MIDI bytes: the oracle scans it, the traced run times its layers.
type twin struct {
	sys       *qbh.System
	normals   []ts.Series // every phrase's normal form, in Visit order
	songOf    []int64     // and its song
	transform core.Transform
	coarse    core.Transform
}

func songsOf(melodies []melody) []music.Song {
	songs := make([]music.Song, len(melodies))
	for i, m := range melodies {
		songs[i] = music.Song{ID: int64(i), Title: fmt.Sprintf("%06d", i), Melody: m}
	}
	return songs
}

func buildTwin(melodies []melody) (*twin, error) { return buildPagedTwin(melodies, "", 0) }

// buildPagedTwin is buildTwin out of core, as qbhd -pool-pages runs: the
// corpus columns and tree nodes page through a pool of poolPages pages
// spilled under dir. An empty dir keeps everything in RAM.
func buildPagedTwin(melodies []melody, dir string, poolPages int) (*twin, error) {
	sys, err := qbh.Build(songsOf(melodies), qbh.Options{PhraseMin: phraseMin, PhraseMax: phraseMax,
		Pager: pager.Config{Dir: dir, PoolPages: poolPages}})
	if err != nil {
		return nil, err
	}
	t := &twin{sys: sys, transform: core.NewPAA(normalLen, featDim), coarse: core.NewCoarsePAA(normalLen)}
	sys.Index().Visit(func(id int64, x ts.Series) {
		ph, _ := sys.PhraseByID(id)
		t.normals = append(t.normals, append(ts.Series(nil), x...))
		t.songOf = append(t.songOf, ph.SongID)
	})
	return t, nil
}

func (t *twin) close() { _ = t.sys.Close() }

func (t *twin) normalize(pitch []float64) []float64 { return t.sys.Normalize(ts.Series(pitch)) }

// normalizeMelody is the normal form the program indexes a phrase under.
func (t *twin) normalizeMelody(m melody) []float64 { return t.sys.Normalize(m.TimeSeries()) }

func bandRadius() int { return dtw.BandRadius(normalLen, queryDelta) }

// bandedDTW is the oracle's distance: the reference implementation.
func bandedDTW(x, y []float64, band int) float64 { return dtw.Banded(x, y, band) }

type songMatch struct {
	song int64
	dist float64
}

type queryCounters struct {
	candidates, coarse, keogh, lb, exact, logicalPages, pageAccesses int
	cached                                                           bool
}

func countersOf(st index.QueryStats) queryCounters {
	return queryCounters{st.Candidates, st.CoarseSurvivors, st.KeoghSurvivors, st.LBSurvivors,
		st.ExactDTW, st.LogicalPages, st.PageAccesses, st.Cached}
}

func (t *twin) enableCache(bytes int64) { t.sys.EnableResultCache(bytes) }

// query is the call the server's handler makes; only its cost and
// counters are of interest here.
func (t *twin) query(pitch []float64) (queryCounters, error) {
	_, st, err := t.sys.QueryCtx(context.Background(), ts.Series(pitch), topK, queryDelta, index.Limits{})
	return countersOf(st), err
}

type queryPlan struct {
	p        *index.Plan
	env      dtw.Envelope
	fineBox  core.FeatureEnvelope
	envelope time.Duration // replayed: dtw.NewEnvelope
	apply    time.Duration // replayed: fine + coarse ApplyEnvelope
}

// plan builds the query plan and replays its two hidden steps standalone.
func (t *twin) plan(q []float64) (queryPlan, time.Duration, error) {
	t0 := time.Now()
	p, err := t.sys.Index().NewPlan(ts.Series(q), queryDelta)
	total := time.Since(t0)
	if err != nil {
		return queryPlan{}, 0, err
	}
	qp := queryPlan{p: p}
	t0 = time.Now()
	qp.env = dtw.NewEnvelope(ts.Series(q), bandRadius())
	qp.envelope = time.Since(t0)
	t0 = time.Now()
	qp.fineBox = t.transform.ApplyEnvelope(qp.env)
	_ = t.coarse.ApplyEnvelope(qp.env)
	qp.apply = time.Since(t0)
	return qp, total, nil
}

// knnRound is one growth round of the ranked retrieval: the k nearest
// phrases, resolved to their songs.
func (t *twin) knnRound(qp queryPlan, k int) ([]songMatch, queryCounters, error) {
	ms, st, err := t.sys.Index().KNNPlan(context.Background(), qp.p, k, index.Limits{})
	out := make([]songMatch, len(ms))
	for i, m := range ms {
		ph, _ := t.sys.PhraseByID(m.ID)
		out[i] = songMatch{ph.SongID, m.Dist}
	}
	return out, countersOf(st), err
}

func (t *twin) numPhrases() int { return t.sys.NumPhrases() }

// ---- standalone layer drivers for the traced run -------------------------

// kernels times the three cascade kernels on the candidates a range search
// with the query's own k-th distance returns, stage by stage as the cascade
// applies them: LB_Keogh on all, LB_Improved on its survivors, banded DTW
// on theirs.
type kernelCost struct {
	keogh, improved, banded          time.Duration
	keoghN, improvedN, bandedN, node int
	rangeSearch                      time.Duration
}

type featureTree struct {
	tree    *rtree.Tree
	feats   []rtree.Item // every phrase's feature point, id = index into normals
	normals []ts.Series
	items   []rtree.Item // reused result buffer
	ws      *dtw.Workspace
}

// newFeatureTree bulk-loads a standalone R*-tree over the twin's phrase
// features; item ids index t.normals.
func (t *twin) newFeatureTree() *featureTree {
	items := make([]rtree.Item, len(t.normals))
	for i, x := range t.normals {
		items[i] = rtree.Item{ID: int64(i), Point: t.transform.Apply(x)}
	}
	return &featureTree{tree: rtree.BulkLoad(featDim, rtree.Config{}, items), feats: items, normals: t.normals, ws: dtw.NewWorkspace()}
}

func (ft *featureTree) replay(q []float64, qp queryPlan, cutoff float64) kernelCost {
	var c kernelCost
	box := rtree.Rect{Lo: qp.fineBox.Lower, Hi: qp.fineBox.Upper}
	var st rtree.Stats
	t0 := time.Now()
	ft.items = ft.tree.RangeSearchRectInto(box, cutoff, ft.items[:0], &st)
	c.rangeSearch, c.node = time.Since(t0), st.NodeAccesses

	band, cut2 := bandRadius(), cutoff*cutoff
	fwd := make([]float64, 0, len(ft.items))
	keep := ft.items[:0]
	t0 = time.Now()
	for _, it := range ft.items {
		if d, ok := dtw.SquaredDistToEnvelopeWithin(ft.normals[it.ID], qp.env, cut2); ok {
			keep, fwd = append(keep, it), append(fwd, d)
		}
	}
	c.keogh, c.keoghN = time.Since(t0), len(ft.items)

	pass := keep[:0]
	t0 = time.Now()
	for i, it := range keep {
		if _, ok := ft.ws.SquaredLBImprovedWithin(ts.Series(q), ft.normals[it.ID], qp.env, band, fwd[i], cut2); ok {
			pass = append(pass, it)
		}
	}
	c.improved, c.improvedN = time.Since(t0), len(keep)

	t0 = time.Now()
	for _, it := range pass {
		ft.ws.SquaredBandedWithin(ts.Series(q), ft.normals[it.ID], band, cut2)
	}
	c.banded, c.bandedN = time.Since(t0), len(pass)
	return c
}

// insert times R*-tree inserts of new feature points.
func (ft *featureTree) insert(t *twin, series [][]float64) time.Duration {
	pts := make([][]float64, len(series))
	for i, x := range series {
		pts[i] = t.transform.Apply(ts.Series(x))
	}
	t0 := time.Now()
	for i, p := range pts {
		ft.tree.Insert(int64(len(ft.normals)+i), p)
	}
	return time.Since(t0)
}

// pagedProbe is a scratch page space of the workload's pool size holding a
// paged copy of the feature tree and a plain page file.
type pagedProbe struct {
	sp    *pager.Space
	pt    *rtree.PagedTree
	file  *pager.File
	pages uint64
	raw   *store.PageFile
	buf   []byte
}

const probePages = 4096 // pages in the pin/read probe file: 32 MiB, well past any pool here

func newPagedProbe(dir string, poolPages int, ft *featureTree) (*pagedProbe, error) {
	sp, err := pager.Open(pager.Config{Dir: filepath.Join(dir, "pages"), PoolPages: poolPages})
	if err != nil {
		return nil, err
	}
	pp := &pagedProbe{sp: sp, pages: probePages, buf: make([]byte, sp.PageSize())}
	// The paged tree needs nodes that fit a page, so it is packed afresh
	// with the page's capacity, as the index does for its paged base.
	packed := rtree.BulkLoad(featDim, rtree.Config{MaxEntries: rtree.PageCapacity(featDim, sp.PageSize())}, ft.feats)
	if pp.pt, err = rtree.WritePaged(packed, sp); err != nil {
		_ = sp.Close()
		return nil, err
	}
	if pp.file, err = sp.NewFile(pager.KindColumn); err != nil {
		_ = sp.Close()
		return nil, err
	}
	for i := uint64(0); i < pp.pages; i++ {
		fr, err := sp.Pool().PinNew(pp.file, pp.file.Allocate())
		if err != nil {
			_ = sp.Close()
			return nil, err
		}
		sp.Pool().Unpin(fr)
	}
	if err := sp.Pool().FlushAll(); err != nil {
		_ = sp.Close()
		return nil, err
	}
	rawPath := filepath.Join(dir, "raw.pages")
	if pp.raw, err = store.CreatePageFile(store.OS(), rawPath, sp.PageSize(), pager.KindColumn); err != nil {
		_ = sp.Close()
		return nil, err
	}
	for i := uint64(0); i < pp.pages; i++ {
		if err := pp.raw.WritePage(pp.raw.Allocate(), pp.buf); err != nil {
			pp.close()
			return nil, err
		}
	}
	return pp, nil
}

func (pp *pagedProbe) close() {
	_ = pp.raw.Close()
	_ = pp.sp.Close()
}

func (pp *pagedProbe) rangeSearch(qp queryPlan, cutoff float64, dst []rtree.Item) ([]rtree.Item, time.Duration, error) {
	var st rtree.Stats
	t0 := time.Now()
	dst, err := pp.pt.RangeSearchInto(rtree.Rect{Lo: qp.fineBox.Lower, Hi: qp.fineBox.Upper}, cutoff, dst[:0], &st)
	return dst, time.Since(t0), err
}

// pin times n pins of one resident page (hits) and n pins striding through
// a file larger than the pool (misses), and n raw page reads.
func (pp *pagedProbe) pin(n int, r *rand.Rand) (hit, miss, read time.Duration, err error) {
	pool := pp.sp.Pool()
	fr, _, err := pool.Pin(pp.file, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	pool.Unpin(fr)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fr, _, err := pool.Pin(pp.file, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		pool.Unpin(fr)
	}
	hit = time.Since(t0)
	var missed int
	t0 = time.Now()
	for i := 0; i < n; i++ {
		fr, m, err := pool.Pin(pp.file, uint64(r.Int63n(int64(pp.pages))))
		if err != nil {
			return 0, 0, 0, err
		}
		if m {
			missed++
		}
		pool.Unpin(fr)
	}
	miss = time.Since(t0)
	if missed > 0 {
		miss = miss * time.Duration(n) / time.Duration(missed)
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := pp.raw.ReadPage(uint64(r.Int63n(int64(pp.pages))), pp.buf); err != nil {
			return 0, 0, 0, err
		}
	}
	return hit, miss, time.Since(t0), nil
}

// ingestProbe is a scratch durable database over the same corpus, for the
// write path's layers.
type ingestProbe struct {
	d   *qbh.Durable
	wal *store.WAL
}

func newIngestProbe(dir string, melodies []melody) (*ingestProbe, error) {
	d, err := qbh.OpenDurable(filepath.Join(dir, "db"), qbh.DurableOptions{
		GroupCommit: 2 * time.Millisecond, // qbhd's -group-commit default
		Build: func() (*qbh.System, error) {
			return qbh.Build(songsOf(melodies), qbh.Options{PhraseMin: phraseMin, PhraseMax: phraseMax})
		},
		Logf: func(string, ...interface{}) {},
	})
	if err != nil {
		return nil, err
	}
	w, _, err := store.OpenWAL(store.OS(), filepath.Join(dir, "probe.wal"), 2*time.Millisecond)
	if err != nil {
		_ = d.Close()
		return nil, err
	}
	return &ingestProbe{d: d, wal: w}, nil
}

func (ip *ingestProbe) close() {
	_ = ip.wal.Close()
	_ = ip.d.Close()
}

func (ip *ingestProbe) add(title string, m melody) error {
	_, err := ip.d.AddSongTitled(title, m)
	return err
}

func (ip *ingestProbe) walBytes() int64 { return ip.d.DurabilityStats().WALBytes }

func (ip *ingestProbe) snapshot() error { return ip.d.Snapshot() }

func (ip *ingestProbe) walAppend(payload []byte) error { return ip.wal.Append(payload) }

// indexAdd times Sharded.Add of fresh series into a scratch single-shard
// index seeded with the twin's corpus.
func (t *twin) indexAdd(series [][]float64) (time.Duration, error) {
	ix, err := index.NewSharded("", t.transform, index.Config{}, 1)
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	entries := make([]index.Entry, len(t.normals))
	for i, x := range t.normals {
		entries[i] = index.Entry{ID: int64(i), Series: x}
	}
	if err := ix.BulkAdd(entries); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i, x := range series {
		if err := ix.Add(int64(len(entries)+i), ts.Series(x)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
