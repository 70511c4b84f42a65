package dtw

import (
	"fmt"
	"math"

	"warping/internal/ts"
)

// PathPoint is one alignment step of a warping path: element I of x is
// matched with element J of y (0-based).
type PathPoint struct {
	I, J int
}

// Path is a full warping path from (0,0) to (n-1, m-1).
type Path []PathPoint

// Align computes the unconstrained DTW alignment between x and y and returns
// both the squared distance and the optimal warping path. It uses O(n*m)
// memory; use SquaredDistance when the path is not needed.
func Align(x, y ts.Series) (float64, Path) {
	return alignBanded(x, y, -1)
}

// AlignBanded computes the k-Local DTW alignment (equal lengths) and returns
// the squared distance and path.
func AlignBanded(x, y ts.Series, k int) (float64, Path) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dtw: AlignBanded needs equal lengths, got %d and %d", len(x), len(y)))
	}
	if k < 0 {
		panic("dtw: negative band radius")
	}
	return alignBanded(x, y, k)
}

// alignBanded runs the full-matrix DP. k < 0 means unconstrained.
func alignBanded(x, y ts.Series, k int) (float64, Path) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		panic("dtw: empty series")
	}
	const inf = math.MaxFloat64
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	inBand := func(i, j int) bool {
		return k < 0 || abs(i-j) <= k
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if !inBand(i, j) {
				continue
			}
			d := x[i] - y[j]
			d *= d
			switch {
			case i == 0 && j == 0:
				cost[i][j] = d
			case i == 0:
				if cost[i][j-1] < inf {
					cost[i][j] = d + cost[i][j-1]
				}
			case j == 0:
				if cost[i-1][j] < inf {
					cost[i][j] = d + cost[i-1][j]
				}
			default:
				best := cost[i-1][j-1]
				if cost[i-1][j] < best {
					best = cost[i-1][j]
				}
				if cost[i][j-1] < best {
					best = cost[i][j-1]
				}
				if best < inf {
					cost[i][j] = d + best
				}
			}
		}
	}
	// Backtrack.
	path := Path{{n - 1, m - 1}}
	i, j := n-1, m-1
	for i > 0 || j > 0 {
		bi, bj := i, j
		best := inf
		if i > 0 && j > 0 && cost[i-1][j-1] < best {
			best, bi, bj = cost[i-1][j-1], i-1, j-1
		}
		if i > 0 && cost[i-1][j] < best {
			best, bi, bj = cost[i-1][j], i-1, j
		}
		if j > 0 && cost[i][j-1] < best {
			best, bi, bj = cost[i][j-1], i, j-1
		}
		_ = best
		i, j = bi, bj
		path = append(path, PathPoint{i, j})
	}
	// Reverse in place.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return cost[n-1][m-1], path
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
