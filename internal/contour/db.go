package contour

import (
	"container/heap"
	"sort"

	"warping/internal/music"
)

// DB is a contour-string melody database queried by edit distance, with an
// optional q-gram pre-filter that prunes entries whose q-gram overlap with
// the query proves their edit distance exceeds the current kth best.
type DB struct {
	alphabet Alphabet
	q        int
	entries  []dbEntry
}

type dbEntry struct {
	id      int64
	str     string
	profile map[string]int
}

// NewDB creates a contour database with the given alphabet and q-gram
// length (q = 0 disables the filter).
func NewDB(a Alphabet, q int) *DB {
	return &DB{alphabet: a, q: q}
}

// Add inserts a melody under an id.
func (db *DB) Add(id int64, m music.Melody) {
	s := String(m, db.alphabet)
	e := dbEntry{id: id, str: s}
	if db.q > 0 {
		e.profile = QGramProfile(s, db.q)
	}
	db.entries = append(db.entries, e)
}

// Result is one ranked match.
type Result struct {
	ID int64
	// Dist is the edit distance between contour strings.
	Dist int
}

// QueryStats reports filter effectiveness.
type QueryStats struct {
	// EditDistances is the number of full edit-distance computations.
	EditDistances int
	// Pruned is the number of entries eliminated by the q-gram and
	// length filters.
	Pruned int
}

// distHeap is a max-heap over the current topK distances.
type distHeap []int

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Query takes an already-segmented query melody, reduces it to a contour
// string, and returns the topK closest entries by edit distance (ascending,
// ties by id). With q > 0, entries provably farther than the current kth
// best are pruned without computing the edit distance.
func (db *DB) Query(query music.Melody, topK int) ([]Result, QueryStats) {
	qs := String(query, db.alphabet)
	var stats QueryStats
	var qProfile map[string]int
	if db.q > 0 {
		qProfile = QGramProfile(qs, db.q)
	}
	var results []Result
	top := &distHeap{}
	kthBest := func() int {
		if top.Len() < topK {
			return 1 << 30
		}
		return (*top)[0]
	}
	for _, e := range db.entries {
		if db.q > 0 {
			bound := kthBest()
			// Length filter: edit distance >= |len difference|.
			dl := len(e.str) - len(qs)
			if dl < 0 {
				dl = -dl
			}
			if dl > bound {
				stats.Pruned++
				continue
			}
			// q-gram count filter: ed(a,b) <= k implies common q-grams
			// >= max(|a|,|b|) - q + 1 - k*q.
			maxLen := len(e.str)
			if len(qs) > maxLen {
				maxLen = len(qs)
			}
			need := maxLen - db.q + 1 - bound*db.q
			if need > 0 && CommonQGrams(qProfile, e.profile) < need {
				stats.Pruned++
				continue
			}
		}
		stats.EditDistances++
		d := EditDistance(qs, e.str)
		results = append(results, Result{ID: e.id, Dist: d})
		heap.Push(top, d)
		if top.Len() > topK {
			heap.Pop(top)
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Dist != results[j].Dist {
			return results[i].Dist < results[j].Dist
		}
		return results[i].ID < results[j].ID
	})
	if len(results) > topK {
		results = results[:topK]
	}
	return results, stats
}

// Rank returns the 1-based rank of targetID in a full-database query (the
// quality measure of Table 2), or 0 if the id is absent.
func (db *DB) Rank(query music.Melody, targetID int64) (int, QueryStats) {
	res, stats := db.Query(query, len(db.entries))
	for i, r := range res {
		if r.ID == targetID {
			return i + 1, stats
		}
	}
	return 0, stats
}
