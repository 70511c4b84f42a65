package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/store"
	"warping/internal/ts"
)

// The model-based exactness test. One op script — adds, copies, bulk loads,
// forced merges, page writes that fail and succeed again, range and kNN
// queries — is applied to the Index in every
// storage configuration and to a model: the series added and their groups.
// After every op each configuration must hand back through Visit exactly the
// series the model holds, must hold slot = position over its packed base
// and delta, and must
// answer every query as the brute-force oracle BruteForce
// does: ids, Float64bits of the distances, and order. The tree has one shape
// in every configuration, so every query also reports the same counters in
// each — all but PageAccesses, which counts what the pool really read —
// until a merge or a bulk load fails in the paged configurations only: from
// then on until the next bulk load they all take, the shapes may differ,
// and only the answers are compared. Each seed script also runs as a named
// test.

// A script is a two-byte rng seed followed by four-byte ops: an op code and
// its arguments a, b and c. The rng draws the series, the ids an op picks and
// the queries, so every configuration sees the same history.
const (
	opAdd        = iota // 1+a fresh random walks; id i joins group i % (1+b)
	opCopy              // 1+a%8 verbatim copies of added series in group b: planted exact ties
	opBulkLoad          // every configuration rebuilt by BulkLoad of everything added, in shuffled order
	opMerge             // the delta merge Add runs at its threshold (merge)
	opRange             // Range(ε = a, δ = b/100) at query c
	opKNN               // KNN(k = 1+a%16, δ = b/100) at query c
	opGroupKNN          // KNN(k = 1+a%16, δ = b/100) over the groups, at query c
	opTune              // 1+a fresh tunes (pitch-derived normal forms); id i joins group i % (1+b)
	opFailWrites        // a odd: every page write of the paged configurations fails from here on; a even: writes succeed again
	numOps
)

// Query kinds: the c argument of a query op, mod 3.
const (
	qFresh = iota // a fresh random walk
	qLive         // an added series, verbatim
	qNoisy        // an added series plus noise
)

// budget bounds what one script can cost: the ops it applies and the series
// it keeps live.
type budget struct{ ops, live int }

// A seed script runs whole under its named test. Under FuzzIndexModel every
// input, seeds included, runs at a fraction of the work, so that fuzzing
// spends its time on new scripts rather than on the seeds' full histories.
var (
	fullBudget = budget{ops: 128, live: 700}
	fuzzBudget = budget{ops: 32, live: 120}
)

// coverage names what a seed script exists to exercise; runIndexModel fails
// the seed if its history did not get there.
type coverage uint8

const (
	layered     coverage = 1 << iota // every configuration ended with a packed base and a non-empty delta
	tiedGroups                       // a grouped kNN answer held an exact distance tie between groups
	poolMissed                       // the paged configurations read pages from their files
	byteRecords                      // after some op every configuration, RAM and paged, held byte records
	mergeFailed                      // a merge failed in the paged configurations, was counted and backed off
)

type op [4]byte

// script encodes a seed script.
func script(seed uint16, parts ...[]op) []byte {
	out := []byte{byte(seed >> 8), byte(seed)}
	for _, p := range parts {
		for _, o := range p {
			out = append(out, o[:]...)
		}
	}
	return out
}

// chunked splits n units of a counted op into ops of at most 256.
func chunked(code byte, n int, b byte) []op {
	var out []op
	for ; n > 0; n -= 256 {
		out = append(out, op{code, byte(min(n, 256) - 1), b})
	}
	return out
}

// add adds n fresh series, id i in group i % groups (groups <= 256); tunes
// adds tunes.
func add(n, groups int) []op   { return chunked(opAdd, n, byte(groups-1)) }
func tunes(n, groups int) []op { return chunked(opTune, n, byte(groups-1)) }
func copies(n int, group byte) []op {
	return []op{{opCopy, byte(n - 1), group}}
}
func bulkLoad() []op { return []op{{opBulkLoad}} }
func merge() []op    { return []op{{opMerge}} }
func failWrites(fail bool) []op {
	if fail {
		return []op{{opFailWrites, 1}}
	}
	return []op{{opFailWrites, 0}}
}
func rangeQ(eps, deltaPct, q byte) []op {
	return []op{{opRange, eps, deltaPct, q}}
}
func knn(k, deltaPct, q byte) []op      { return []op{{opKNN, k - 1, deltaPct, q}} }
func groupKNN(k, deltaPct, q byte) []op { return []op{{opGroupKNN, k - 1, deltaPct, q}} }

// times repeats a sequence of ops.
func times(n int, parts ...[]op) []op {
	var out []op
	for range n {
		for _, p := range parts {
			out = append(out, p...)
		}
	}
	return out
}

// The seed scripts: each the history of the suite named beside it.
var (
	backendsScript = script(77, add(300, 1),
		rangeQ(8, 2, qFresh), knn(1, 2, qFresh),
		rangeQ(10, 10, qNoisy), knn(7, 10, qNoisy),
		rangeQ(40, 17, qLive), knn(12, 17, qLive),
		rangeQ(255, 6, qFresh), knn(3, 6, qFresh))
	churnScript = script(411, times(6,
		add(60, 1), merge(), add(40, 1),
		rangeQ(60, 10, qNoisy), knn(8, 10, qFresh), knn(3, 5, qLive)))
	pagedDifferentialScript = script(7, add(200, 1), merge(), add(100, 1),
		times(4, rangeQ(20, 6, qNoisy), rangeQ(60, 6, qFresh), rangeQ(120, 6, qFresh), knn(7, 6, qNoisy), knn(7, 6, qLive)))
	// The copies planted before the merge tie exactly in the STR pack, so the
	// order repackLive hands it the records in decides their places.
	pagedMergeScript = script(11, add(200, 1), bulkLoad(), rangeQ(100, 6, qNoisy), knn(9, 6, qFresh),
		add(60, 1), copies(8, 0), rangeQ(100, 6, qNoisy), knn(9, 6, qLive),
		merge(), rangeQ(100, 6, qFresh), knn(9, 6, qNoisy),
		add(140, 1), rangeQ(100, 6, qLive), knn(9, 6, qLive), knn(9, 6, qNoisy))
	bulkMatchesIncrementalScript = script(131, add(600, 1),
		times(2, rangeQ(6, 12, qFresh), knn(5, 12, qNoisy)), bulkLoad(),
		times(2, rangeQ(6, 12, qFresh), knn(5, 12, qNoisy)))
	bulkDynamicScript = script(132, add(100, 1), bulkLoad(), add(1, 1), merge(), add(1, 1),
		knn(5, 10, qLive), rangeQ(30, 10, qFresh))
	// 12 groups of random walks, then verbatim copies of live series planted
	// in other groups, so exact ties fall in first place and at the cut.
	groupedScript = script(1503, add(72, 12), copies(2, 3), copies(2, 9), copies(4, 7),
		times(3, groupKNN(1, 10, qLive), groupKNN(5, 10, qNoisy), groupKNN(12, 10, qLive), groupKNN(15, 10, qFresh)),
		knn(6, 10, qLive))
	// Queries on an empty index, then on a tiny one, whose delta merges
	// into a base smaller than one leaf; k always exceeds the corpus.
	tinyScript = script(0, knn(2, 10, qFresh), rangeQ(30, 10, qFresh), add(3, 1), knn(2, 10, qLive),
		merge(), knn(5, 10, qNoisy), add(1, 1), knn(9, 10, qFresh))
	// Many small merges, back to back ones among them (a merge of an empty
	// delta repacks the base alone), with copies landing on both sides.
	mergesScript = script(32, add(150, 1), times(8, merge(), add(10, 1), copies(2, 0), merge(), copies(1, 0)),
		rangeQ(8, 10, qFresh), rangeQ(30, 10, qNoisy), knn(10, 10, qLive))
	// groupedScript's ties across a packed base and the delta beside it.
	groupedLayeredScript = script(1504, add(72, 12), copies(2, 3), merge(), copies(2, 9), copies(4, 7), add(24, 12),
		times(3, groupKNN(1, 10, qLive), groupKNN(5, 10, qNoisy), groupKNN(12, 10, qLive), groupKNN(15, 10, qFresh)))
	// Tunes, which a paged corpus holds as byte records, across bulk loads,
	// merges and a delta, with copies planting exact ties.
	tunesScript = script(46, tunes(300, 6), bulkLoad(), rangeQ(40, 6, qNoisy), knn(9, 6, qLive), groupKNN(4, 10, qNoisy),
		tunes(100, 6), copies(4, 2), merge(), rangeQ(60, 10, qLive), knn(5, 10, qFresh),
		tunes(40, 6), times(2, rangeQ(30, 6, qNoisy), knn(7, 6, qNoisy), groupKNN(3, 6, qLive)))
	// Page writes fail under a packed base and a delta: the paged merges and
	// the paged bulk load fail whole and leave the old base serving, while
	// RAM merges; then writes succeed, the paged merge lands, and a bulk
	// load brings every configuration back to one shape.
	failWritesScript = script(26, add(200, 1), merge(), add(80, 1), copies(4, 0), failWrites(true),
		merge(), rangeQ(60, 10, qNoisy), knn(7, 10, qLive), add(40, 1), merge(), knn(5, 10, qNoisy),
		bulkLoad(), rangeQ(40, 6, qLive), knn(9, 6, qFresh), add(20, 1),
		failWrites(false), merge(), rangeQ(60, 10, qNoisy), knn(7, 10, qNoisy), add(30, 1),
		bulkLoad(), rangeQ(60, 10, qFresh), knn(7, 10, qLive), add(10, 1), knn(5, 10, qNoisy))
	// A corpus of tunes whose delta gains random walks: the next merge
	// writes float64 series instead, and every answer stays the oracle's.
	tunesThenWalksScript = script(47, tunes(200, 1), merge(), knn(5, 10, qNoisy), add(20, 1), knn(5, 10, qLive),
		merge(), tunes(10, 1), rangeQ(50, 10, qNoisy), knn(5, 10, qNoisy), merge(), knn(9, 10, qLive))
)

var indexSeeds = [][]byte{
	backendsScript, churnScript, pagedDifferentialScript, pagedMergeScript, bulkMatchesIncrementalScript,
	bulkDynamicScript, groupedScript, tinyScript, mergesScript, groupedLayeredScript,
	tunesScript, tunesThenWalksScript, failWritesScript,
}

// FuzzIndexModel applies arbitrary op scripts to RAM, paged behind a 16-page
// pool and paged behind tinySpace's 8 pages, against the model and the
// oracle, within fuzzBudget. Its seeds are the scripts above. An input
// still costs tens of milliseconds, and by default the fuzzer spends up to
// a minute minimizing each new one, reporting no executions meanwhile, so
// a session explores more with -fuzzminimizetime 1x.
func FuzzIndexModel(f *testing.F) {
	for _, s := range indexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexModel(t, data, fuzzBudget, 0) })
}

func TestBackendsAndShardCountsAgree(t *testing.T) { runIndexModel(t, backendsScript, fullBudget, 0) }
func TestChurnCompactionBackendsAgree(t *testing.T) {
	runIndexModel(t, churnScript, fullBudget, layered)
}
func TestPagedDifferential(t *testing.T) {
	t.Run("rtree/shards=1", func(t *testing.T) { runIndexModel(t, pagedDifferentialScript, fullBudget, layered|poolMissed) })
}
func TestPagedMergeAndCompact(t *testing.T) {
	runIndexModel(t, pagedMergeScript, fullBudget, layered|poolMissed)
}
func TestBulkLoadMatchesIncremental(t *testing.T) {
	runIndexModel(t, bulkMatchesIncrementalScript, fullBudget, 0)
}
func TestBulkLoadedIndexIsDynamic(t *testing.T) {
	runIndexModel(t, bulkDynamicScript, fullBudget, layered)
}
func TestTinyIndexModel(t *testing.T)      { runIndexModel(t, tinyScript, fullBudget, 0) }
func TestRepeatedMergesModel(t *testing.T) { runIndexModel(t, mergesScript, fullBudget, 0) }
func TestTunesIndexModel(t *testing.T) {
	runIndexModel(t, tunesScript, fullBudget, layered|poolMissed|byteRecords)
	runIndexModel(t, tunesThenWalksScript, fullBudget, byteRecords)
}
func TestFailedWritesModel(t *testing.T) {
	runIndexModel(t, failWritesScript, fullBudget, layered|poolMissed|mergeFailed)
}
func TestGroupedKNNMatchesBruteForce(t *testing.T) {
	runIndexModel(t, groupedScript, fullBudget, tiedGroups)
	runIndexModel(t, groupedLayeredScript, fullBudget, tiedGroups|layered)
}

// modelCell is one storage configuration under test.
type modelCell struct {
	name string
	sp   *pager.Space   // nil in RAM
	fs   *store.FaultFS // sp's filesystem; nil in RAM
	ix   *Index
}

type indexModel struct {
	t      testing.TB
	r      *rand.Rand
	tr     core.Transform
	cells  []*modelCell
	series map[int64]ts.Series
	group  map[int64]int64
	ids    []int64 // in the order added
	budget budget
	step   string // the op being applied, for failure messages
	tied   bool
	coded  bool // after some op every configuration held byte records
	// failing: the paged configurations' page writes fail. diverged: a
	// merge or bulk load failed in some configurations and not in others,
	// so their shapes, and with them their counters, may differ until the
	// next bulk load they all take.
	failing, diverged, mergeFailed bool
}

func runIndexModel(t testing.TB, data []byte, b budget, want coverage) {
	if len(data) < 2 {
		return
	}
	m := &indexModel{
		t:      t,
		r:      rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[1]))),
		tr:     core.NewPAA(testN, testDim),
		series: make(map[int64]ts.Series),
		group:  make(map[int64]int64),
		budget: b,
	}
	for _, pool := range []int{0, 16, 8} {
		c := &modelCell{name: "ram"}
		if pool > 0 {
			c.fs = store.NewFaultFS(store.OS())
			c.name, c.sp = fmt.Sprintf("paged/%d", pool), pagedSpaceIn(t, t.TempDir(), pool, c.fs)
		}
		c.ix = New(m.tr, Config{Pager: c.sp})
		m.cells = append(m.cells, c)
	}
	defer func() {
		for _, c := range m.cells {
			if err := c.ix.Close(); err != nil {
				t.Errorf("%s: Close: %v", c.name, err)
			}
		}
	}()
	ops := data[2:]
	for i := 0; i+4 <= len(ops) && i < 4*b.ops; i += 4 {
		o := op(ops[i : i+4])
		m.step = fmt.Sprintf("op %d %v", i/4, o)
		m.apply(o[0]%numOps, o[1], o[2], o[3])
		coded := true
		for _, c := range m.cells {
			m.checkStored(c)
			checkLeafOrder(t, m.step+": "+c.name, c.ix)
			checkTreePoints(t, m.step+": "+c.name, c.ix)
			coded = coded && c.ix.st.coded
		}
		m.coded = m.coded || coded
	}
	m.covers(want)
}

func (m *indexModel) apply(code, a, b, c byte) {
	switch code {
	case opAdd, opTune:
		gen := randomWalk
		if code == opTune {
			gen = tune
		}
		for range 1 + int(a) {
			if len(m.ids) < m.budget.live {
				m.add(gen(m.r, testN), int64(len(m.ids))%(int64(b)+1))
			}
		}
	case opCopy:
		for range 1 + int(a)%8 {
			if len(m.ids) > 0 && len(m.ids) < m.budget.live {
				m.add(m.series[m.ids[m.r.Intn(len(m.ids))]], int64(b))
			}
		}
	case opBulkLoad:
		entries := m.entries()
		m.r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		for _, cell := range m.cells {
			ix, err := BulkLoad(m.tr, Config{Pager: cell.sp}, entries)
			if err != nil && m.failing && cell.fs != nil {
				// The index the build would replace serves on.
				m.diverged = true
				continue
			}
			if err != nil {
				m.t.Fatalf("%s: %s: BulkLoad: %v", m.step, cell.name, err)
			}
			if err := cell.ix.Close(); err != nil {
				m.t.Fatalf("%s: %s: Close: %v", m.step, cell.name, err)
			}
			cell.ix = ix
			checkLeafOrder(m.t, m.step+": "+cell.name, cell.ix)
		}
		m.diverged = m.failing
	case opMerge:
		for _, cell := range m.cells {
			want := packOrder(m.t, cell.ix)
			before := cell.ix.merges
			cell.ix.merge()
			after := cell.ix.merges
			if m.failing && cell.fs != nil {
				// It fails whole, is counted, and the next waits for another
				// deltaThreshold() adds; base and delta serve on.
				if after.MergeFailures != before.MergeFailures+1 || !strings.Contains(after.LastError, store.ErrInjected.Error()) ||
					cell.ix.retryAt != cell.ix.delta.Len()+cell.ix.deltaThreshold() {
					m.t.Fatalf("%s: %s: a merge under failing writes: stats %+v, retry at %d with a delta of %d",
						m.step, cell.name, after, cell.ix.retryAt, cell.ix.delta.Len())
				}
				m.diverged, m.mergeFailed = true, true
				continue
			}
			if after.Merges != before.Merges+1 || cell.ix.retryAt != 0 {
				m.t.Fatalf("%s: %s: merge: %s", m.step, cell.name, after.LastError)
			}
			checkLeafOrder(m.t, m.step+": "+cell.name, cell.ix)
			var got []int64
			for _, it := range treeItems(m.t, cell.ix) {
				got = append(got, it.ID)
			}
			if !slices.Equal(got, want) {
				m.t.Fatalf("%s: %s: the repacked tree is not the STR pack of the records in slot order", m.step, cell.name)
			}
		}
	case opRange, opKNN, opGroupKNN:
		m.query(code, a, float64(b%21)/100, m.queryOf(c))
	case opFailWrites:
		m.failing = a%2 == 1
		var err error
		if m.failing {
			err = store.ErrInjected
		}
		for _, cell := range m.cells {
			if cell.fs != nil {
				cell.fs.FailWrites(err)
			}
		}
	}
}

// add indexes x under the next id everywhere.
func (m *indexModel) add(x ts.Series, group int64) {
	id := int64(len(m.ids))
	m.series[id], m.group[id] = x, group
	m.ids = append(m.ids, id)
	for _, c := range m.cells {
		if err := c.ix.Add(id, x); err != nil {
			m.t.Fatalf("%s: %s: Add(%d): %v", m.step, c.name, id, err)
		}
	}
}

// checkStored asserts that Visit hands back every series the model holds,
// bit for bit, and nothing else.
func (m *indexModel) checkStored(c *modelCell) {
	n := 0
	c.ix.Visit(func(id int64, x ts.Series) {
		if want, ok := m.series[id]; !ok || !sameBits(x, want) {
			m.t.Fatalf("%s: %s: Visit gave id %d a series the model does not hold (held: %v)", m.step, c.name, id, ok)
		}
		n++
	})
	if n != len(m.ids) {
		m.t.Fatalf("%s: %s: Visit gave %d series, want %d", m.step, c.name, n, len(m.ids))
	}
}

func (m *indexModel) entries() []Entry {
	out := make([]Entry, len(m.ids))
	for i, id := range m.ids {
		out[i] = Entry{ID: id, Series: m.series[id]}
	}
	return out
}

func (m *indexModel) groupOf(id int64) int64 { return m.group[id] }

func (m *indexModel) queryOf(c byte) ts.Series {
	switch c % 3 {
	case qLive, qNoisy:
		if len(m.ids) == 0 {
			break
		}
		x := m.series[m.ids[m.r.Intn(len(m.ids))]]
		if c%3 == qLive {
			return x
		}
		y := make(ts.Series, len(x))
		for i := range x {
			y[i] = x[i] + 0.3*m.r.NormFloat64()
		}
		return y
	}
	return randomWalk(m.r, testN)
}

// query runs one query op on every configuration against the oracle.
func (m *indexModel) query(code, a byte, delta float64, q ts.Series) {
	ctx := context.Background()
	entries := m.entries()
	var want []Match
	var lim Limits
	k := 1 + int(a)%16
	switch code {
	case opRange:
		want = within(BruteForce(entries, q, delta, len(entries), nil), float64(a))
	case opKNN:
		want = BruteForce(entries, q, delta, k, nil)
	case opGroupKNN:
		lim.GroupOf = m.groupOf
		want = BruteForce(entries, q, delta, k, m.groupOf)
		for i := 1; i < len(want); i++ { // one member per group: a tie is between groups
			m.tied = m.tied || want[i].Dist == want[i-1].Dist
		}
	}
	var ramStats QueryStats
	for i, c := range m.cells {
		var got []Match
		var st QueryStats
		var err error
		if code == opRange {
			got, st, err = c.ix.RangeQueryCtx(ctx, q, float64(a), delta, lim)
		} else {
			got, st, err = c.ix.KNNCtx(ctx, q, k, delta, lim)
		}
		if err != nil || st.Degraded {
			m.t.Fatalf("%s: %s: err %v, degraded %v", m.step, c.name, err, st.Degraded)
		}
		if !sameMatches(got, want) {
			m.t.Fatalf("%s: %s (δ=%g):\n got %v\nwant %v", m.step, c.name, delta, got, want)
		}
		// Every configuration walks the same tree and delta in the same
		// order and verifies the same candidates at the same thresholds, so
		// each stage passes the same count; only the real page reads
		// differ.
		st.PageAccesses = 0
		if i == 0 {
			ramStats = st
		} else if st != ramStats && !m.diverged {
			m.t.Fatalf("%s: %s: counters %+v, RAM %+v", m.step, c.name, st, ramStats)
		}
	}
}

// sameMatches reports whether got is want bit for bit: ids, Float64bits of
// the distances, order.
func sameMatches(got, want []Match) bool {
	return slices.EqualFunc(got, want, func(g, w Match) bool {
		return g.ID == w.ID && math.Float64bits(g.Dist) == math.Float64bits(w.Dist)
	})
}

// within returns the prefix of a full ranking at distance <= epsilon: the
// oracle's range answer.
func within(sorted []Match, epsilon float64) []Match {
	n := 0
	for n < len(sorted) && sorted[n].Dist <= epsilon {
		n++
	}
	return sorted[:n]
}

func (m *indexModel) covers(want coverage) {
	for _, c := range m.cells {
		if want&layered != 0 && (c.ix.base.Len() == 0 || c.ix.delta.Len() == 0) {
			m.t.Errorf("%s: the script ended with base %d and delta %d, not both non-empty", c.name, c.ix.base.Len(), c.ix.delta.Len())
		}
		if want&poolMissed != 0 && c.sp != nil && c.sp.Stats().Misses == 0 {
			m.t.Errorf("%s: the pool served everything from memory", c.name)
		}
	}
	if want&tiedGroups != 0 && !m.tied {
		m.t.Error("no grouped kNN answer held a tie between groups")
	}
	if want&byteRecords != 0 && !m.coded {
		m.t.Error("the configurations never all held byte records")
	}
	if want&mergeFailed != 0 && !m.mergeFailed {
		m.t.Error("no merge failed under failing writes")
	}
}
