// Package gridfile implements a sparse grid-file index over points, the
// alternative multidimensional index structure the paper cites (as used by
// StatStream [35]): insert and box range search, which is what the
// experiments' structure comparison needs. Feature space is partitioned
// into uniform cells; each non-empty cell holds a bucket of items. The
// directory is a hash map, so only occupied cells cost memory, which keeps
// the structure practical in the 4-8 dimensional feature spaces this
// library produces.
//
// Like the R*-tree, the grid file counts every bucket visited by a query as
// one page access, so the two indexes are directly comparable in the
// paper's implementation-bias-free cost measure.
package gridfile

import (
	"fmt"
	"math"
)

// Item is a stored object. Slot is an opaque caller tag carried through
// searches untouched (the index package stores the item's corpus arena
// slot there, so candidate resolution is a direct arena access instead of
// an id→slot map lookup).
type Item struct {
	ID    int64
	Slot  int32
	Point []float64
}

// Stats holds query-cost counters, accumulated per query.
type Stats struct {
	// BucketAccesses counts buckets (pages) visited by queries.
	BucketAccesses int
	// CellProbes counts directory lookups, including empty cells.
	CellProbes int
}

// Grid is a sparse uniform grid index. Searches are read-pure and may run
// concurrently with each other; inserts require exclusive access.
type Grid struct {
	dim      int
	cellSize float64
	buckets  map[string][]Item
	size     int
}

// New creates a grid with the given cell edge length. Smaller cells probe
// more directory entries per query but scan fewer points per bucket.
func New(dim int, cellSize float64) *Grid {
	if dim < 1 {
		panic(fmt.Sprintf("gridfile: invalid dimension %d", dim))
	}
	if cellSize <= 0 {
		panic(fmt.Sprintf("gridfile: invalid cell size %v", cellSize))
	}
	return &Grid{
		dim:      dim,
		cellSize: cellSize,
		buckets:  make(map[string][]Item),
	}
}

// Len returns the number of stored items.
func (g *Grid) Len() int { return g.size }

// cellOf maps a point to its cell coordinates.
func (g *Grid) cellOf(p []float64) []int {
	c := make([]int, g.dim)
	for i, v := range p {
		c[i] = int(math.Floor(v / g.cellSize))
	}
	return c
}

func cellKey(c []int) string {
	// Fixed-width-ish encoding; fine for the directory sizes in play.
	key := make([]byte, 0, len(c)*4)
	for _, v := range c {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(key)
}

// Insert adds an item. The point slice is retained.
func (g *Grid) Insert(it Item) {
	if len(it.Point) != g.dim {
		panic(fmt.Sprintf("gridfile: point dim %d, grid dim %d", len(it.Point), g.dim))
	}
	k := cellKey(g.cellOf(it.Point))
	g.buckets[k] = append(g.buckets[k], it)
	g.size++
}

// RangeSearchBox returns all items whose Euclidean distance to the
// axis-aligned box [lo, hi] is at most radius (lo == hi is a point query).
// It probes every grid cell intersecting the box expanded by radius, then
// filters points exactly, accumulating bucket and cell-probe counts into st
// (which may be nil). Searches never mutate the grid, so any number may run
// concurrently as long as each uses its own Stats.
func (g *Grid) RangeSearchBox(lo, hi []float64, radius float64, st *Stats) []Item {
	if len(lo) != g.dim || len(hi) != g.dim {
		panic("gridfile: query dimension mismatch")
	}
	if st == nil {
		st = &Stats{}
	}
	cLo := make([]int, g.dim)
	cHi := make([]int, g.dim)
	for i := 0; i < g.dim; i++ {
		cLo[i] = int(math.Floor((lo[i] - radius) / g.cellSize))
		cHi[i] = int(math.Floor((hi[i] + radius) / g.cellSize))
	}
	r2 := radius * radius
	var out []Item
	cur := make([]int, g.dim)
	copy(cur, cLo)
	for {
		st.CellProbes++
		if bucket, ok := g.buckets[cellKey(cur)]; ok {
			st.BucketAccesses++
			for _, it := range bucket {
				if squaredDistToBox(it.Point, lo, hi) <= r2 {
					out = append(out, it)
				}
			}
		}
		// Advance the multidimensional counter.
		d := 0
		for d < g.dim {
			cur[d]++
			if cur[d] <= cHi[d] {
				break
			}
			cur[d] = cLo[d]
			d++
		}
		if d == g.dim {
			break
		}
	}
	return out
}

func squaredDistToBox(p, lo, hi []float64) float64 {
	var sum float64
	for i, v := range p {
		switch {
		case v < lo[i]:
			d := lo[i] - v
			sum += d * d
		case v > hi[i]:
			d := v - hi[i]
			sum += d * d
		}
	}
	return sum
}
