package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"warping/internal/core"
	"warping/internal/hum"
	"warping/internal/music"
	"warping/internal/ts"
)

// songCorpus is a phrase corpus with a phrase → song table: the shape the
// qbh layer hands the grouped kNN.
type songCorpus struct {
	phrases []ts.Series
	songOf  []int64
	nSongs  int
	queries []ts.Series
}

func (c *songCorpus) groupOf(id int64) int64 { return c.songOf[id] }

// oracle is BruteForce's distinct-song ranking of the corpus.
func (c *songCorpus) oracle(q ts.Series, k int, delta float64) []Match {
	entries := make([]Entry, len(c.phrases))
	for id, x := range c.phrases {
		entries[id] = Entry{ID: int64(id), Series: x}
	}
	return BruteForce(entries, q, delta, k, c.groupOf)
}

// TestGroupedKNNBoundedWalk drives the song-level kNN through every shape the
// bounded tree walk meets — a bulk-built base with records added since (in
// paged mode a non-empty delta beside the paged base, merged stream by
// stream) — against the brute-force ranking: phrase ids, Float64bits of the distances
// and the (distance, song) order, with the same phrase planted in several
// songs so that ties sit in first place and at the cutoff.
func TestGroupedKNNBoundedWalk(t *testing.T) {
	r := rand.New(rand.NewSource(2703))
	const nSongs, perSong, delta = 48, 12, 0.1
	c := &songCorpus{nSongs: nSongs}
	for s := int64(0); s < nSongs; s++ {
		for i := 0; i < perSong; i++ {
			c.phrases = append(c.phrases, randomWalk(r, testN))
			c.songOf = append(c.songOf, s)
		}
	}
	// The same phrase in four songs, early and late in id order: one copy
	// lands in the bulk-built base, another among the later adds.
	for _, at := range []int{5, 77, 300, 431} {
		for _, to := range []int{at + 50, len(c.phrases) - 1 - at, len(c.phrases) - 30 - at/8} {
			c.phrases[to] = c.phrases[at]
		}
	}
	bulk := len(c.phrases) * 2 / 3
	for _, at := range []int{5, 300, 431, 20} {
		q := make(ts.Series, testN)
		for i, v := range c.phrases[at] {
			q[i] = v + 0.2*r.NormFloat64()
		}
		c.queries = append(c.queries, q)
	}
	c.queries = append(c.queries, randomWalk(r, testN))

	tr := core.NewPAA(testN, testDim)
	for _, paged := range []bool{false, true} {
		name := fmt.Sprintf("paged=%v", paged)
		cfg := Config{}
		if paged {
			cfg.Pager = pagedSpace(t, 16)
		}
		ix := New(tr, cfg)
		entries := make([]Entry, bulk)
		for id := range entries {
			entries[id] = Entry{ID: int64(id), Series: c.phrases[id]}
		}
		if err := ix.BulkAdd(entries); err != nil {
			t.Fatal(err)
		}
		for id := bulk; id < len(c.phrases); id++ {
			if err := ix.Add(int64(id), c.phrases[id]); err != nil {
				t.Fatal(err)
			}
		}
		if ix.base.Len() == 0 || ix.delta.Len() == 0 {
			t.Fatalf("%s: base %d, delta %d — the test needs both", name, ix.base.Len(), ix.delta.Len())
		}
		for qi, q := range c.queries {
			p, err := ix.NewPlan(q, delta)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, nSongs + 3} {
				got, st, err := ix.KNNPlan(context.Background(), p, k, Limits{GroupOf: c.groupOf})
				if err != nil {
					t.Fatalf("%s q%d k=%d: %v", name, qi, k, err)
				}
				want := c.oracle(q, k, delta)
				if len(got) != len(want) {
					t.Fatalf("%s q%d k=%d: %d matches, want %d", name, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s q%d k=%d rank %d: got %+v, want %+v\n got %v\nwant %v", name, qi, k, i, got[i], want[i], got, want)
					}
				}
				if qi < 3 && k == 1 && want[0].Dist != c.oracle(q, 2, delta)[1].Dist {
					t.Fatalf("%s q%d: no tie in first place; the corpus lost what the test is about", name, qi)
				}
				// Bounded, the frontiers never hold the whole corpus
				// unless the cutoff stays infinite (k above the song count).
				if st.FrontierPushes == 0 || (k <= 5 && st.FrontierPushes >= len(c.phrases)) {
					t.Fatalf("%s q%d k=%d: %d frontier pushes over %d phrases", name, qi, k, st.FrontierPushes, len(c.phrases))
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzGroupedTopK drives the one top-k structure with arbitrary
// (id, dist) offer sequences, each id in the group it is first offered in —
// the identity grouping included, which is the phrase-level heap — against
// the oracle: each offer is a one-point series [dist] and the query [0], whose
// band-0 DTW distance is dist exactly (a multiple of 1/4).
func FuzzGroupedTopK(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 9, 2, 1, 4, 3, 2, 4, 4, 2, 2, 5, 3, 1})
	f.Add([]byte{1, 1, 5, 0, 3, 6, 0, 3, 2, 0, 3})
	f.Add([]byte{200, 0, 7, 7, 7, 7, 7, 7, 8, 7, 7, 6, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		k := int(data[0])%9 + 1
		identity := data[1]%2 == 1
		group := map[int64]int64{}
		var offers []Entry
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			id := int64(rest[0])
			if _, seen := group[id]; !seen {
				group[id] = int64(rest[1] % 12)
				if identity {
					group[id] = id
				}
			}
			offers = append(offers, Entry{ID: id, Series: ts.Series{float64(rest[2]%16) / 4}})
		}

		sc := getScratch()
		defer putScratch(sc)
		top := sc.topK(k)
		for _, o := range offers {
			top.offer(o.ID, group[o.ID], o.Series[0])
			for g, i := range top.pos {
				if i >= len(top.m) || top.m[i].group != g {
					t.Fatalf("pos[%d] = %d does not point at the group's entry", g, i)
				}
			}
			if len(top.pos) != len(top.m) {
				t.Fatalf("%d groups tracked, %d held", len(top.pos), len(top.m))
			}
		}

		want := BruteForce(offers, ts.Series{0}, 0, k, func(id int64) int64 { return group[id] })
		if top.full() != (len(want) == k) {
			t.Fatalf("full() = %v with %d of %d groups", top.full(), len(want), k)
		}
		if top.full() && top.worst() != want[k-1].Dist {
			t.Fatalf("worst() = %v, the oracle's k-th distance %v", top.worst(), want[k-1].Dist)
		}
		if got := top.sortedInto(sc); !sameMatches(got, want) {
			t.Fatalf("k=%d identity=%v offers=%v:\n got %v\nwant %v", k, identity, offers, got, want)
		}
	})
}

// benchSongCorpus is the fixed corpus of the song-level benchmarks: the
// phrases of 500 generated songs in normal form with the song of each, and
// the normal forms of 32 good-singer hums of random phrases.
func benchSongCorpus() (entries []Entry, songOf []int64, hums []ts.Series) {
	var phrases []music.Melody
	for _, song := range music.GenerateSongs(1, 500, 200, 400) {
		for _, ph := range music.SegmentPhrases(song.Melody, 10, 25) {
			entries = append(entries, Entry{ID: int64(len(entries)), Series: ph.TimeSeries().NormalForm(testN)})
			songOf = append(songOf, song.ID)
			phrases = append(phrases, ph)
		}
	}
	r := rand.New(rand.NewSource(15))
	for range 32 {
		pitch := hum.StripSilence(hum.GoodSinger().RenderPitch(phrases[r.Intn(len(phrases))], r))
		hums = append(hums, pitch.NormalForm(testN))
	}
	return entries, songOf, hums
}

// BenchmarkSongKNN is the CI guard of the distinct-song search and of the
// page-local corpus layout (the "Pruning-power smoke" step reads its
// metrics): on a fixed 500-song generated corpus and 32 fixed hums it
// reports, per hum, the candidates examined, the survivors of LB_Keogh and
// of LB_KeoghEC, and the exact DTWs run by the song-level search (k = topK songs) and by the phrase-level search it
// replaced (k = 4·topK phrases, the first round of the old growth loop), and
// for the song-level search out-of-core — a 256-page pool, which would
// hold all 236 pages of the phrases' column and the tree's leaves, emptied
// before each hum — the real page reads of one hum from cold. One op is the
// whole hum set, so a 1x run already reports the means, all exact counts:
// the song-level numbers must not exceed the phrase-level ones, a hum must
// read well under one page per candidate, and RAM and paged walk the same
// tree, so song and paged report the same candidates, exact DTWs and
// pushes. delta is the song-level search in RAM with the last fifth of the
// corpus added one by one, a flat delta just under its merge threshold of
// base/4: what a full delta costs the walk. Those four run at δ = 0.1;
// delta=0.05/… and delta=0.2/… are the song-level search at a narrower and
// a wider band, in RAM (song) and out of core (paged) — the paper serves
// poor singers best at δ = 0.2, where a hum costs several times as much.
func BenchmarkSongKNN(b *testing.B) {
	const topK = 5
	entries, songOf, hums := benchSongCorpus()
	sp := pagedSpace(b, 256)
	build := func(cfg Config, added int) *Index {
		base := len(entries) - added
		ix, err := BulkLoad(core.NewPAA(testN, testDim), cfg, entries[:base])
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ix.Close() }) // before the space's own cleanup
		for _, e := range entries[base:] {
			if err := ix.Add(e.ID, e.Series); err != nil {
				b.Fatal(err)
			}
		}
		if ix.delta.Len() != added {
			b.Fatalf("%d adds left a delta of %d", added, ix.delta.Len())
		}
		return ix
	}
	ram, paged := build(Config{}, 0), build(Config{Pager: sp}, 0)
	withDelta := build(Config{}, len(entries)/5-1)
	plansAt := func(delta float64) []*Plan {
		plans := make([]*Plan, len(hums))
		for i, q := range hums {
			var err error
			if plans[i], err = ram.NewPlan(q, delta); err != nil {
				b.Fatal(err)
			}
		}
		return plans
	}
	bySong := func(id int64) int64 { return songOf[id] }
	type level struct {
		name  string
		ix    *Index
		k     int
		lim   Limits
		plans []*Plan
	}
	plans := plansAt(0.1)
	levels := []level{
		{"song", ram, topK, Limits{GroupOf: bySong}, plans},
		{"phrase", ram, 4 * topK, Limits{}, plans},
		{"paged", paged, topK, Limits{GroupOf: bySong}, plans},
		{"delta", withDelta, topK, Limits{GroupOf: bySong}, plans},
	}
	for _, delta := range []float64{0.05, 0.2} {
		plans := plansAt(delta)
		levels = append(levels,
			level{fmt.Sprintf("delta=%v/song", delta), ram, topK, Limits{GroupOf: bySong}, plans},
			level{fmt.Sprintf("delta=%v/paged", delta), paged, topK, Limits{GroupOf: bySong}, plans})
	}
	for _, level := range levels {
		b.Run(level.name, func(b *testing.B) {
			var total QueryStats
			for i := 0; i < b.N; i++ {
				for _, p := range level.plans {
					if level.ix == paged {
						b.StopTimer()
						if err := sp.Pool().Reset(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					_, st, err := level.ix.KNNPlan(context.Background(), p, level.k, level.lim)
					if err != nil {
						b.Fatal(err)
					}
					total.Add(st)
				}
			}
			hums := float64(b.N * len(level.plans))
			b.ReportMetric(float64(total.Candidates)/hums, "candidates/op")
			b.ReportMetric(float64(total.KeoghSurvivors)/hums, "keogh_survivors/op")
			b.ReportMetric(float64(total.ECSurvivors)/hums, "ec_survivors/op")
			b.ReportMetric(float64(total.ExactDTW)/hums, "exact_dtw/op")
			b.ReportMetric(float64(total.PageAccesses)/hums, "page_accesses/op")
			b.ReportMetric(float64(total.FrontierPushes)/hums, "frontier_pushes/op")
		})
	}
}

// TestSongKNNWorkPinned pins the walk's and the cascade's work, and the
// answers, on BenchmarkSongKNN's corpus: over its first 8 hums at k = 5
// songs, at δ = 0.1 and at δ = 0.2, in RAM and through a 256-page pool
// emptied first, the summed candidates, exact DTWs, frontier pushes and page
// accesses, and an FNV-1a fingerprint of every answer's ids and distance
// bits in order, equal the constants below. A change that makes the search
// do other work, or answer otherwise by one bit, fails here; one that means
// to updates the constants and says why. (The paged pages fell from 1 493 to
// 362 when the shadow and float64 series columns became one column of byte
// records, 60 phrases a page; every other figure stayed. The exact DTWs fell
// from 375 to 231 at δ = 0.1 and from 1 809 to 1 018 at δ = 0.2 when the
// LB_KeoghEC stage joined the cascade, and every other figure stayed. When
// a leaf came to hold the 102 entries its page fits rather than 60, the
// tree grew shallower and wider: pages fell 648 → 392 and 847 → 504 in RAM
// and 362 → 233 and 490 → 243 paged; pushes rose 11 721 → 12 878 and
// 21 410 → 21 664, since a visited leaf pushes all its in-bound entries; and
// the exact DTWs at δ = 0.2 fell 1 018 → 1 006, because the best-first
// stream breaks ties among equal keys in the order the tree's shape gives,
// and the kNN cutoff tightens at another point. Candidates and answers
// stayed. When a leaf entry became point | id, its slot its position, a page
// came to hold 113 entries rather than 102: pages fell 392 → 358 and
// 504 → 462 in RAM and 233 → 225 and 243 → 234 paged, pushes rose
// 12 878 → 13 230 and 21 664 → 21 885, and the exact DTWs at δ = 0.2 rose
// 1 006 → 1 045, again by the tie order the wider tree gives. Candidates
// and answers stayed.) In both modes the phrases are held as byte records, and in RAM
// in at most 136 B a phrase.
func TestSongKNNWorkPinned(t *testing.T) {
	const topK, nHums = 5, 8
	entries, songOf, hums := benchSongCorpus()
	bySong := func(id int64) int64 { return songOf[id] }
	type work struct {
		candidates, exactDTW, pushes, pages int
		answers                             uint64
	}
	want := map[string]work{
		"ram δ=0.1":   {7018, 231, 13230, 358, 0x5e29c3a95e962f4b},
		"paged δ=0.1": {7018, 231, 13230, 225, 0x5e29c3a95e962f4b},
		"ram δ=0.2":   {17784, 1045, 21885, 462, 0xa49e11d59327e140},
		"paged δ=0.2": {17784, 1045, 21885, 234, 0xa49e11d59327e140},
	}
	sp := pagedSpace(t, 256)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"ram", Config{}}, {"paged", Config{Pager: sp}}} {
		ix, err := BulkLoad(core.NewPAA(testN, testDim), mode.cfg, entries)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ix.Close() }) // before the space's own cleanup
		if !ix.st.coded {
			t.Fatalf("%s: the phrases are not held as byte records", mode.name)
		}
		// In RAM the phrases' storage is the byte arena plus the float64
		// tail, a record a phrase: a float64 copy would be 1 KiB a phrase.
		if held := cap(ix.st.recs) + 8*cap(ix.st.xs); mode.cfg.Pager == nil && held > (recordHeader+testN)*len(entries) {
			t.Fatalf("ram: %d B of series storage for %d phrases, %.1f B a phrase; want at most %d",
				held, len(entries), float64(held)/float64(len(entries)), recordHeader+testN)
		}
		for _, delta := range []float64{0.1, 0.2} {
			if err := sp.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			var got work
			h := fnv.New64a()
			for _, q := range hums[:nHums] {
				p, err := ix.NewPlan(q, delta)
				if err != nil {
					t.Fatal(err)
				}
				ms, st, err := ix.KNNPlan(context.Background(), p, topK, Limits{GroupOf: bySong})
				if err != nil {
					t.Fatal(err)
				}
				got.candidates += st.Candidates
				got.exactDTW += st.ExactDTW
				got.pushes += st.FrontierPushes
				got.pages += st.PageAccesses
				for _, m := range ms {
					h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(m.ID)), math.Float64bits(m.Dist)))
				}
			}
			got.answers = h.Sum64()
			row := fmt.Sprintf("%s δ=%v", mode.name, delta)
			if got != want[row] {
				t.Errorf("%s: got %+v, want %+v", row, got, want[row])
			}
		}
	}
}
