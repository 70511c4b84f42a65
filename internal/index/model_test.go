package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"warping/internal/core"
	"warping/internal/pager"
	"warping/internal/ts"
)

// The model-based exactness test. One op script — adds, copies, removes,
// re-adds, bulk loads, forced merges, range and kNN queries — is applied to
// the Index in every storage configuration and to a model: the live series
// and their groups. After every op each configuration must agree with the
// model on Len and Get, must hold slot = leaf rank over its packed base and
// delta, and must answer every query as the brute-force oracle BruteForce
// does: ids, Float64bits of the distances, and order. The tree has one shape
// in every configuration, so every query also reports the same counters in
// each — all but PageAccesses, which counts what the pool really read. Each
// seed script also runs as a named test.

// A script is a two-byte rng seed followed by four-byte ops: an op code and
// its arguments a, b and c. The rng draws the series, the ids an op picks and
// the queries, so every configuration sees the same history.
const (
	opAdd      = iota // 1+a fresh random walks; id i joins group i % (1+b)
	opCopy            // 1+a%8 verbatim copies of live series in group b: planted exact ties
	opRemove          // an id never added (must fail), then 1+a live ids, each removed twice (the second must fail)
	opReAdd           // 1+a removed series under new ids, in their old groups
	opBulkLoad        // every configuration rebuilt by BulkLoad of the live set, in shuffled order
	opMerge           // a forced repack of the live records (repackLive: the paged delta merge)
	opRange           // Range(ε = a, δ = b/100) at query c
	opKNN             // KNN(k = 1+a%16, δ = b/100) at query c
	opGroupKNN        // KNN(k = 1+a%16, δ = b/100) over the groups, at query c
	numOps
)

// Query kinds: the c argument of a query op, mod 4.
const (
	qFresh   = iota // a fresh random walk
	qLive           // a live series, verbatim
	qNoisy          // a live series plus noise
	qRemoved        // a removed series, verbatim
)

// maxOps and maxLive bound what one fuzz input can cost.
const (
	maxOps  = 128
	maxLive = 700
)

// coverage names what a seed script exists to exercise; runIndexModel fails
// the seed if its history did not get there.
type coverage uint8

const (
	compacted  coverage = 1 << iota // every configuration repacked tombstones away at least once
	tiedGroups                      // a grouped kNN answer held an exact distance tie between groups
	poolMissed                      // the paged configurations read pages from their files
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

// add adds n fresh series, id i in group i % groups (groups <= 256).
func add(n, groups int) []op { return chunked(opAdd, n, byte(groups-1)) }
func remove(n int) []op      { return chunked(opRemove, n, 0) }
func readd(n int) []op       { return chunked(opReAdd, n, 0) }
func copies(n int, group byte) []op {
	return []op{{opCopy, byte(n - 1), group}}
}
func bulkLoad() []op { return []op{{opBulkLoad}} }
func merge() []op    { return []op{{opMerge}} }
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
		add(120, 1), remove(80),
		rangeQ(60, 10, qNoisy), knn(8, 10, qFresh), knn(3, 5, qRemoved)))
	pagedDifferentialScript = script(7, add(300, 1), remove(160), readd(100),
		times(4, rangeQ(20, 6, qNoisy), rangeQ(60, 6, qFresh), rangeQ(120, 6, qFresh), knn(7, 6, qNoisy), knn(7, 6, qRemoved)))
	// The copies planted before the merge tie exactly in the STR pack, so the
	// order repackLive hands it the records in decides their places.
	pagedMergeScript = script(11, add(200, 1), bulkLoad(), rangeQ(100, 6, qNoisy), knn(9, 6, qFresh),
		add(60, 1), copies(8, 0), rangeQ(100, 6, qNoisy), knn(9, 6, qLive),
		merge(), rangeQ(100, 6, qFresh), knn(9, 6, qNoisy),
		remove(140), rangeQ(100, 6, qRemoved), knn(9, 6, qRemoved), knn(9, 6, qNoisy))
	removeScript = script(31, add(200, 1), remove(1),
		rangeQ(1, 10, qRemoved), knn(1, 10, qRemoved), knn(1, 10, qLive), knn(5, 10, qNoisy))
	removeUnknownScript   = script(0, remove(1), add(3, 1), remove(1), remove(5), knn(2, 10, qFresh))
	removeThenReAddScript = script(32, add(150, 1), times(50, remove(1), readd(1)),
		rangeQ(8, 10, qFresh), rangeQ(30, 10, qRemoved), knn(10, 10, qRemoved))
	bulkMatchesIncrementalScript = script(131, add(600, 1),
		times(2, rangeQ(6, 12, qFresh), knn(5, 12, qNoisy)), bulkLoad(),
		times(2, rangeQ(6, 12, qFresh), knn(5, 12, qNoisy)))
	bulkDynamicScript = script(132, add(100, 1), bulkLoad(), add(1, 1), remove(1),
		knn(5, 10, qLive), rangeQ(30, 10, qRemoved))
	// 12 groups of random walks, then verbatim copies of live series planted
	// in other groups, so exact ties fall in first place and at the cut.
	groupedScript = script(1503, add(72, 12), copies(2, 3), copies(2, 9), copies(4, 7),
		times(3, groupKNN(1, 10, qLive), groupKNN(5, 10, qNoisy), groupKNN(12, 10, qLive), groupKNN(15, 10, qFresh)),
		knn(6, 10, qLive))
)

var indexSeeds = [][]byte{
	backendsScript, churnScript, pagedDifferentialScript, pagedMergeScript, removeScript,
	removeUnknownScript, removeThenReAddScript, bulkMatchesIncrementalScript, bulkDynamicScript, groupedScript,
}

// FuzzIndexModel applies arbitrary op scripts to RAM, paged behind a 16-page
// pool and paged behind tinySpace's 8 pages, against the model and the
// oracle. Its seeds are the scripts above.
func FuzzIndexModel(f *testing.F) {
	for _, s := range indexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexModel(t, data, 0) })
}

func TestBackendsAndShardCountsAgree(t *testing.T)  { runIndexModel(t, backendsScript, 0) }
func TestChurnCompactionBackendsAgree(t *testing.T) { runIndexModel(t, churnScript, compacted) }
func TestPagedDifferential(t *testing.T) {
	t.Run("rtree/shards=1", func(t *testing.T) { runIndexModel(t, pagedDifferentialScript, compacted|poolMissed) })
}
func TestPagedMergeAndCompact(t *testing.T) { runIndexModel(t, pagedMergeScript, compacted|poolMissed) }
func TestRemove(t *testing.T)               { runIndexModel(t, removeScript, 0) }
func TestRemoveUnknown(t *testing.T)        { runIndexModel(t, removeUnknownScript, 0) }
func TestRemoveThenReAdd(t *testing.T)      { runIndexModel(t, removeThenReAddScript, 0) }
func TestBulkLoadMatchesIncremental(t *testing.T) {
	runIndexModel(t, bulkMatchesIncrementalScript, 0)
}
func TestBulkLoadedIndexIsDynamic(t *testing.T)    { runIndexModel(t, bulkDynamicScript, 0) }
func TestGroupedKNNMatchesBruteForce(t *testing.T) { runIndexModel(t, groupedScript, tiedGroups) }

// modelCell is one storage configuration under test.
type modelCell struct {
	name        string
	sp          *pager.Space // nil in RAM
	ix          *Index
	compactions int // of the indexes the cell held before its current one
}

type indexModel struct {
	t       testing.TB
	r       *rand.Rand
	tr      core.Transform
	cells   []*modelCell
	series  map[int64]ts.Series // every id ever added
	group   map[int64]int64
	live    []int64
	removed []int64
	next    int64
	step    string // the op being applied, for failure messages
	tied    bool
}

func runIndexModel(t testing.TB, data []byte, want coverage) {
	if len(data) < 2 {
		return
	}
	m := &indexModel{
		t:      t,
		r:      rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[1]))),
		tr:     core.NewPAA(testN, testDim),
		series: make(map[int64]ts.Series),
		group:  make(map[int64]int64),
	}
	for _, pool := range []int{0, 16, 8} {
		c := &modelCell{name: "ram"}
		if pool > 0 {
			c.name, c.sp = fmt.Sprintf("paged/%d", pool), pagedSpace(t, pool)
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
	for i := 0; i+4 <= len(ops) && i < 4*maxOps; i += 4 {
		o := op(ops[i : i+4])
		m.step = fmt.Sprintf("op %d %v", i/4, o)
		m.apply(o[0]%numOps, o[1], o[2], o[3])
		for _, c := range m.cells {
			if c.ix.Len() != len(m.live) {
				t.Fatalf("%s: %s: Len = %d, want %d", m.step, c.name, c.ix.Len(), len(m.live))
			}
			checkLeafOrder(t, m.step+": "+c.name, c.ix)
			checkTreePoints(t, m.step+": "+c.name, c.ix)
		}
	}
	m.covers(want)
}

func (m *indexModel) apply(code, a, b, c byte) {
	switch code {
	case opAdd:
		for range 1 + int(a) {
			if len(m.live) < maxLive {
				m.add(randomWalk(m.r, testN), m.next%(int64(b)+1))
			}
		}
	case opCopy:
		for range 1 + int(a)%8 {
			if len(m.live) > 0 && len(m.live) < maxLive {
				m.add(m.series[m.live[m.r.Intn(len(m.live))]], int64(b))
			}
		}
	case opRemove:
		m.remove(-1)
		for range 1 + int(a) {
			if len(m.live) > 0 {
				m.remove(m.r.Intn(len(m.live)))
			}
		}
	case opReAdd:
		for range 1 + int(a) {
			if len(m.removed) > 0 && len(m.live) < maxLive {
				i := m.r.Intn(len(m.removed))
				old := m.removed[i]
				m.removed = slices.Delete(m.removed, i, i+1)
				m.add(m.series[old], m.group[old])
			}
		}
	case opBulkLoad:
		entries := m.entries()
		m.r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		for _, cell := range m.cells {
			cell.compactions += cell.ix.compactions
			if err := cell.ix.Close(); err != nil {
				m.t.Fatalf("%s: %s: Close: %v", m.step, cell.name, err)
			}
			var err error
			if cell.ix, err = BulkLoad(m.tr, Config{Pager: cell.sp}, entries); err != nil {
				m.t.Fatalf("%s: %s: BulkLoad: %v", m.step, cell.name, err)
			}
			checkLeafOrder(m.t, m.step+": "+cell.name, cell.ix)
		}
	case opMerge:
		for _, cell := range m.cells {
			want := packOrder(m.t, cell.ix)
			if err := cell.ix.repackLive(); err != nil {
				m.t.Fatalf("%s: %s: repackLive: %v", m.step, cell.name, err)
			}
			checkLeafOrder(m.t, m.step+": "+cell.name, cell.ix)
			var got []int64
			for _, it := range treeItems(m.t, cell.ix) {
				got = append(got, it.ID)
			}
			if !slices.Equal(got, want) {
				m.t.Fatalf("%s: %s: the repacked tree is not the STR pack of the live records in slot order", m.step, cell.name)
			}
		}
	case opRange, opKNN, opGroupKNN:
		m.query(code, a, float64(b%21)/100, m.queryOf(c))
	}
}

// add indexes x under the next id everywhere and reads it back.
func (m *indexModel) add(x ts.Series, group int64) {
	id := m.next
	m.next++
	m.series[id], m.group[id] = x, group
	m.live = append(m.live, id)
	for _, c := range m.cells {
		if err := c.ix.Add(id, x); err != nil {
			m.t.Fatalf("%s: %s: Add(%d): %v", m.step, c.name, id, err)
		}
		got, ok := c.ix.Get(id)
		if !ok || !slices.Equal(got, x) {
			m.t.Fatalf("%s: %s: Get(%d) after Add: ok=%v, series differs", m.step, c.name, id, ok)
		}
	}
}

// remove removes live[i] everywhere (i < 0: an id never added, which every
// configuration must refuse); a repack it triggers must leave slot = leaf
// rank behind.
func (m *indexModel) remove(i int) {
	id := m.next + 1<<40
	if i >= 0 {
		id = m.live[i]
		m.live = slices.Delete(m.live, i, i+1)
		m.removed = append(m.removed, id)
	}
	for _, c := range m.cells {
		before := c.ix.compactions
		if got := c.ix.Remove(id); got != (i >= 0) {
			m.t.Fatalf("%s: %s: Remove(%d) = %v, want %v", m.step, c.name, id, got, i >= 0)
		}
		if c.ix.Remove(id) {
			m.t.Fatalf("%s: %s: Remove(%d) succeeded twice", m.step, c.name, id)
		}
		if _, ok := c.ix.Get(id); ok {
			m.t.Fatalf("%s: %s: Get(%d) hit a removed id", m.step, c.name, id)
		}
		if c.ix.compactions != before {
			checkLeafOrder(m.t, fmt.Sprintf("%s: %s: Remove(%d) compacted", m.step, c.name, id), c.ix)
		}
	}
}

func (m *indexModel) entries() []Entry {
	out := make([]Entry, len(m.live))
	for i, id := range m.live {
		out[i] = Entry{ID: id, Series: m.series[id]}
	}
	return out
}

func (m *indexModel) groupOf(id int64) (int64, bool) { return m.group[id], true }

func (m *indexModel) queryOf(c byte) ts.Series {
	switch c % 4 {
	case qLive, qNoisy:
		if len(m.live) == 0 {
			break
		}
		x := m.series[m.live[m.r.Intn(len(m.live))]]
		if c%4 == qLive {
			return x
		}
		y := make(ts.Series, len(x))
		for i := range x {
			y[i] = x[i] + 0.3*m.r.NormFloat64()
		}
		return y
	case qRemoved:
		if len(m.removed) > 0 {
			return m.series[m.removed[m.r.Intn(len(m.removed))]]
		}
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
		// each stage passes the same count (a paged shadow prunes only what
		// LB_Keogh would); only the real page reads differ.
		st.PageAccesses = 0
		if i == 0 {
			ramStats = st
		} else if st != ramStats {
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
		if want&compacted != 0 && c.compactions+c.ix.compactions == 0 {
			m.t.Errorf("%s: the script never compacted tombstones away", c.name)
		}
		if want&poolMissed != 0 && c.sp != nil && c.sp.Stats().Misses == 0 {
			m.t.Errorf("%s: the pool served everything from memory", c.name)
		}
	}
	if want&tiedGroups != 0 && !m.tied {
		m.t.Error("no grouped kNN answer held a tie between groups")
	}
}
