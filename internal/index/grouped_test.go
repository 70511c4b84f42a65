package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

func (c *songCorpus) groupOf(id int64) (int64, bool) { return c.songOf[id], true }

// oracle is BruteForce's distinct-song ranking of the corpus, with the
// phrases skip reports left out (nil: none).
func (c *songCorpus) oracle(q ts.Series, k int, delta float64, skip func(int64) bool) []Match {
	entries := make([]Entry, 0, len(c.phrases))
	for id, x := range c.phrases {
		if skip == nil || !skip(int64(id)) {
			entries = append(entries, Entry{ID: int64(id), Series: x})
		}
	}
	return BruteForce(entries, q, delta, k, c.groupOf)
}

// tieCorpus builds 12 songs of 6 random-walk phrases each, then plants exact
// distance ties: phrase P1 appears verbatim in songs 7 and 3 (a tie for
// first place under query ≈ P1), and phrase P2 appears verbatim in songs 9
// and 2 while four other songs hold near-copies of the second query itself
// (a tie for fifth place). In both pairs the larger song id gets the smaller
// phrase id, so a slot-order scan meets the song that must lose the tie
// first.
func tieCorpus() *songCorpus {
	r := rand.New(rand.NewSource(1503))
	c := &songCorpus{nSongs: 12}
	add := func(song int64, x ts.Series) {
		c.phrases = append(c.phrases, x)
		c.songOf = append(c.songOf, song)
	}
	noisy := func(x ts.Series, amp float64) ts.Series {
		y := make(ts.Series, len(x))
		for i := range x {
			y[i] = x[i] + amp*r.NormFloat64()
		}
		return y
	}
	p1, p2 := randomWalk(r, testN), randomWalk(r, testN)
	q1, q2 := noisy(p1, 0.3), noisy(p2, 0.3)
	add(7, p1)
	add(9, p2)
	for s := int64(0); s < int64(c.nSongs); s++ {
		for i := 0; i < 6; i++ {
			add(s, randomWalk(r, testN))
		}
	}
	add(3, p1)
	add(2, p2)
	for i, s := range []int64{4, 5, 6, 8} {
		add(s, noisy(q2, 0.01*float64(i+1)))
	}
	c.queries = []ts.Series{q1, q2, randomWalk(r, testN), c.phrases[20]}
	return c
}

// TestGroupedKNNBoundedWalk drives the song-level kNN through every shape the
// bounded tree walk meets — a bulk-built base with records added since (in
// paged mode a non-empty delta tree beside the paged base, merged stream by
// stream), tombstones in both — against the brute-force ranking: phrase ids, Float64bits of the distances
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
	removed := func(id int64) bool { return id%7 == 3 }
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
		live := 0
		for id := range c.phrases {
			if removed(int64(id)) {
				if !ix.Remove(int64(id)) {
					t.Fatalf("%s: phrase %d not removed", name, id)
				}
			} else {
				live++
			}
		}
		if paged && (ix.base.Len() == 0 || len(ix.delta) == 0 || ix.st.dead == 0) {
			t.Fatalf("%s: base %d, delta %d, tombstones %d — the test needs all three", name, ix.base.Len(), len(ix.delta), ix.st.dead)
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
				want := c.oracle(q, k, delta, removed)
				if len(got) != len(want) {
					t.Fatalf("%s q%d k=%d: %d matches, want %d", name, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s q%d k=%d rank %d: got %+v, want %+v\n got %v\nwant %v", name, qi, k, i, got[i], want[i], got, want)
					}
				}
				if qi < 3 && k == 1 && want[0].Dist != c.oracle(q, 2, delta, removed)[1].Dist {
					t.Fatalf("%s q%d: no tie in first place; the corpus lost what the test is about", name, qi)
				}
				// Bounded, the frontiers never hold the whole corpus
				// unless the cutoff stays infinite (k above the song count).
				if st.FrontierPushes == 0 || (k <= 5 && st.FrontierPushes >= live) {
					t.Fatalf("%s q%d k=%d: %d frontier pushes over %d live phrases", name, qi, k, st.FrontierPushes, live)
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupedKNNSkipsRejectedIDs: an id whose group is gone never appears in
// the result and never reaches the cascade — it is neither a candidate nor
// an exact DTW. With k above the group count the cutoff stays infinite, so
// every accepted phrase is a candidate costing exactly one DTW and the
// counters can be compared to the accepted count itself.
func TestGroupedKNNSkipsRejectedIDs(t *testing.T) {
	c := tieCorpus()
	const gone = 7 // owns a copy of P1: the best match of query 0
	reject := func(id int64) bool { return c.songOf[id] == gone }
	accepted := 0
	for id := range c.phrases {
		if !reject(int64(id)) {
			accepted++
		}
	}
	group := func(id int64) (int64, bool) { return c.songOf[id], !reject(id) }

	ix := New(core.NewPAA(testN, testDim), Config{})
	for id, x := range c.phrases {
		if err := ix.Add(int64(id), x); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := ix.NewPlan(c.queries[0], 0.1)
	for _, k := range []int{3, c.nSongs + 3} {
		hook := 0
		got, st, err := ix.KNNPlan(context.Background(), p, k, Limits{GroupOf: group, CandidateHook: func() { hook++ }})
		if err != nil {
			t.Fatal(err)
		}
		want := c.oracle(c.queries[0], k, 0.1, reject)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, got, want)
		}
		for _, m := range got {
			if reject(m.ID) {
				t.Fatalf("k=%d: rejected phrase %d returned", k, m.ID)
			}
		}
		if hook != st.ExactDTW {
			t.Fatalf("k=%d: hook saw %d exact DTWs, stats say %d", k, hook, st.ExactDTW)
		}
		if k > c.nSongs && (st.Candidates != accepted || st.ExactDTW != accepted) {
			t.Fatalf("%d candidates, %d exact DTWs, want %d each (the accepted phrases)", st.Candidates, st.ExactDTW, accepted)
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

		want := BruteForce(offers, ts.Series{0}, 0, k, func(id int64) (int64, bool) { return group[id], true })
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
// reports, per hum, the candidates examined and the exact DTWs run by the
// song-level search (k = topK songs) and by the phrase-level search it
// replaced (k = 4·topK phrases, the first round of the old growth loop), and
// for the song-level search out-of-core — a 256-page pool, a fifth of the
// page files, emptied before each pass — the real page reads. One op is the
// whole hum set, so a 1x run already reports the means, all exact counts:
// the song-level numbers must not exceed the phrase-level ones, a hum must
// read well under one page per candidate, and RAM and paged walk the same
// tree, so song and paged report the same candidates, exact DTWs and
// pushes. delta is the song-level search in RAM with the last fifth of the
// corpus added one by one, a flat delta just under its merge threshold of
// base/4: what a full delta costs the walk.
func BenchmarkSongKNN(b *testing.B) {
	const topK, delta = 5, 0.1
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
			ix.MustAdd(e.ID, e.Series)
		}
		if len(ix.delta) != added {
			b.Fatalf("%d adds left a delta of %d", added, len(ix.delta))
		}
		return ix
	}
	ram, paged := build(Config{}, 0), build(Config{Pager: sp}, 0)
	withDelta := build(Config{}, len(entries)/5-1)
	plans := make([]*Plan, len(hums))
	for i, q := range hums {
		var err error
		if plans[i], err = ram.NewPlan(q, delta); err != nil {
			b.Fatal(err)
		}
	}
	bySong := func(id int64) (int64, bool) { return songOf[id], true }
	for _, level := range []struct {
		name string
		ix   *Index
		k    int
		lim  Limits
	}{
		{"song", ram, topK, Limits{GroupOf: bySong}},
		{"phrase", ram, 4 * topK, Limits{}},
		{"paged", paged, topK, Limits{GroupOf: bySong}},
		{"delta", withDelta, topK, Limits{GroupOf: bySong}},
	} {
		b.Run(level.name, func(b *testing.B) {
			var total QueryStats
			for i := 0; i < b.N; i++ {
				if level.ix == paged {
					b.StopTimer()
					if err := sp.Pool().Reset(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for _, p := range plans {
					_, st, err := level.ix.KNNPlan(context.Background(), p, level.k, level.lim)
					if err != nil {
						b.Fatal(err)
					}
					total.Add(st)
				}
			}
			hums := float64(b.N * len(plans))
			b.ReportMetric(float64(total.Candidates)/hums, "candidates/op")
			b.ReportMetric(float64(total.ExactDTW)/hums, "exact_dtw/op")
			b.ReportMetric(float64(total.PageAccesses)/hums, "page_accesses/op")
			b.ReportMetric(float64(total.FrontierPushes)/hums, "frontier_pushes/op")
		})
	}
}
